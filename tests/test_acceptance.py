"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Tolerances are pinned here and nowhere else.
"""

import math
import time
from collections import Counter

import numpy as np

from qfactory import abort, lwe, oracle, protocol4 as p4, protocol8 as p8
from qfactory import selftest as stt, wire
from qfactory.params import TOY_GADGET, TOY_REG, TOY_MICRO, TOY_WIDE
from qfactory.seeds import derive_seed
from qfactory.sim import QubitDescription, fidelity
from qfactory.stats import tv_distance

FIDELITY_TOL = 1 - 1e-9


def _verdict(num: int, ok: bool, detail: str):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_protocol4_exhaustive_correctness():
    """Exhaustive (y, b) grid on a toy key: description == held qubit."""
    start = time.monotonic()
    params = TOY_GADGET
    client, _ = p4.client_init(params, p4.PLAIN, seed=101)
    pk = client.pk
    nbits = params.total_bits
    assert nbits + 1 <= 12
    table = lwe.f_bit_table(pk)
    all_b = np.arange(1 << nbits, dtype=np.int64)
    worst = 1.0
    checked = 0
    for packed_y in np.unique(table):
        branches = [int(v) for v in np.flatnonzero(table == packed_y)]
        y = tuple(int(v) for v in lwe.unpack_image(params, int(packed_y)))
        preimages = lwe.invert(client.trapdoor, pk, np.array(y))
        assert len(preimages) == len(branches)
        cols = p4.honest_output_table(pk, branches, 0.0)
        norms2 = np.abs(cols[:, 0]) ** 2 + np.abs(cols[:, 1]) ** 2
        support = norms2 > 1e-12
        if len(preimages) == 2:
            by_c = {el.c: el for el in preimages}
            b1 = lwe.h(by_c[0]) ^ lwe.h(by_c[1])
            if b1 == 1:
                diff = lwe.encode_int(params, by_c[0]) ^ lwe.encode_int(params, by_c[1])
                beta = np.bitwise_count(all_b & diff) & 1
                plus, minus = QubitDescription.eight(0).vec, QubitDescription.eight(4).vec
                overlap = np.where(
                    beta == 0,
                    np.abs(cols @ plus.conj()) ** 2,
                    np.abs(cols @ minus.conj()) ** 2,
                )
            else:
                vec = QubitDescription.computational(lwe.h(by_c[0])).vec
                overlap = np.abs(cols @ vec.conj()) ** 2
        else:
            vec = QubitDescription.computational(lwe.h(preimages[0])).vec
            overlap = np.abs(cols @ vec.conj()) ** 2
        fid = overlap[support] / norms2[support]
        worst = min(worst, float(fid.min()))
        checked += int(support.sum())
    elapsed = time.monotonic() - start
    ok = worst >= FIDELITY_TOL and elapsed <= 120
    _verdict(
        1, ok, f"{checked} (y,b) cases, worst fidelity {worst:.12f}, {elapsed:.1f}s"
    )


def test_criterion_02_basis_fixed_by_client():
    """50 toy keys: B1 over every 2-preimage (y, b) equals the planted bit."""
    exceptions = 0
    keys = 50
    pairs = 0
    rng = np.random.default_rng(202)
    for k in range(keys):
        client, _ = p4.client_init(TOY_MICRO, p4.PLAIN, seed=derive_seed(2, k))
        table = lwe.f_bit_table(client.pk)
        d0 = client.trapdoor.d0
        nbits = TOY_MICRO.total_bits
        for packed_y in np.unique(table):
            if int((table == packed_y).sum()) != 2:
                continue
            pairs += 1
            y = tuple(int(v) for v in lwe.unpack_image(TOY_MICRO, int(packed_y)))
            for b in ((0,) * nbits, tuple(int(v) for v in rng.integers(0, 2, size=nbits))):
                out = p4.finalize(client, y, b)
                if out.B1 != d0:
                    exceptions += 1
    _verdict(2, exceptions == 0, f"{keys} keys, {pairs} images, {exceptions} exceptions")


def test_criterion_03_eight_states_table():
    """All 16 index pairs x 4 outcome branches merge to |+_{L pi/4}> exactly."""
    worst = 1.0
    cases = 0
    for idx in range(16):
        B1, B2, B1p, B2p = (idx >> 3) & 1, (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
        in1 = QubitDescription.bb84(B1, B2)
        in2 = QubitDescription.eight(2 * B1p + 4 * B2p)
        branches = p8.merge_branches(in1, in2)
        assert len(branches) == 4
        for s1, s2, _, out in branches:
            want = p8.compute_L(B1, B2, B1p, B2p, s1, s2).qubit()
            worst = min(worst, fidelity(out, want))
            cases += 1
    _verdict(3, cases == 64 and worst >= FIDELITY_TOL, f"64 cases, worst fidelity {worst:.12f}")


def test_criterion_04_xor_gadget_lemma():
    """t in {1..4}, all input tuples x all branches: basis law + 4-state set."""
    four_state = [QubitDescription.equatorial(k) for k in range(4)]
    worst = 1.0
    cases = 0
    import itertools

    for t in (1, 2, 3, 4):
        for combo in itertools.product(range(4), repeat=t):
            bits = [((v >> 1) & 1, v & 1) for v in combo]
            states = [QubitDescription.bb84(b1, b2) for b1, b2 in bits]
            recs = [abort.RunRecord(1, b1, b2) for b1, b2 in bits]
            want_basis = 0
            for b1, _ in bits:
                want_basis ^= b1
            for s_pairs, _, out in abort.gad_xor_branches(states):
                b1, b2 = abort.combine_bits(recs, s_pairs)
                assert b1 == want_basis
                fid = fidelity(out, QubitDescription.equatorial(b1 + 2 * b2))
                in_set = max(fidelity(out, ref) for ref in four_state)
                worst = min(worst, fid, in_set)
                cases += 1
    _verdict(4, worst >= FIDELITY_TOL, f"{cases} branch cases over t<=4, worst {worst:.12f}")


def test_criterion_05_chunk_success_probability():
    """Honest accept rate over 10^4 chunks >= Chernoff bound - 3 sigma."""
    params = TOY_REG
    p_a_hat = lwe.regularity_estimate(params, trials=3000, seed=505).value
    p_b = p_a_hat - 0.12
    t_c = 60
    chunks = 10_000
    rate, _ = abort.simulate_honest_chunks(
        params, t_c, chunks, p_b, seed=506, invert_check_chunks=2
    )
    bound = abort.chernoff_success_bound(p_a_hat, p_b, t_c)
    sigma = math.sqrt(bound * (1 - bound) / chunks)
    ok = rate >= bound - 3 * sigma
    _verdict(
        5,
        ok,
        f"p_a^={p_a_hat:.4f}, rate {rate:.4f} vs bound {bound:.4f} - 3s={3 * sigma:.4f}",
    )


def test_criterion_06_regularity_vs_homomorphy():
    """delta^ >= eta^ - 3 sigma on three toy families, 10^4 trials each."""
    families = {"gadget8": TOY_GADGET, "reg32": TOY_REG, "wide64": TOY_WIDE}
    trials = 10_000
    details = []
    ok = True
    for name, params in families.items():
        delta = lwe.regularity_estimate(params, trials, seed=derive_seed(6, name, "d"))
        eta = lwe.homomorphy_estimate(params, trials, seed=derive_seed(6, name, "e"))
        sigma = math.hypot(
            (delta.interval[1] - delta.interval[0]) / 6,
            (eta.interval[1] - eta.interval[0]) / 6,
        )
        good = delta.value >= eta.value - 3 * sigma
        ok = ok and good
        details.append(f"{name}: d={delta.value:.4f} e={eta.value:.4f} 3s={3 * sigma:.4f}")
    _verdict(6, ok, "; ".join(details))


def test_criterion_07_selftest_statistics():
    """Honest stats within eps2 = 0.05 at N = 10^4; pi/8 shift aborts >= 99%."""
    res = stt.selftest_iid(stt.honest_strategy(), N=10_000, eps2=0.05, seed=707)
    worst_dev = max(
        abs(plus / count - stt.ideal_prob(k, 0))
        for k, (count, plus) in res.table.pooled().items()
    )
    shifted = stt.shifted_strategy(math.pi / 8)
    aborts = sum(
        not stt.selftest_iid(shifted, N=10_000, eps2=0.05, seed=derive_seed(7, t)).accept
        for t in range(100)
    )
    ok = res.accept and worst_dev < 0.05 and aborts >= 99
    _verdict(7, ok, f"honest max dev {worst_dev:.4f}, shifted aborts {aborts}/100")


def test_criterion_08_isometry_theorem():
    """Fidelity 1 for honest, the phi family, and conjugated strategies."""
    strategies = {"honest": stt.honest_strategy()}
    for phi in (0.0, math.pi / 7, math.pi / 3, 1.0):
        strategies[f"phi={phi:.3f}"] = stt.phi_family_strategy(phi)
    rng = np.random.default_rng(808)
    for dim in (2, 4, 8):
        A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        U, _ = np.linalg.qr(A)
        strategies[f"conj-d{dim}"] = stt.conjugated_strategy(U)
    worst_fid = 1.0
    worst_junk = 0.0
    for st in strategies.values():
        res = stt.isometry_result(st)
        worst_fid = min(worst_fid, min(res.fidelities))
        worst_junk = max(worst_junk, stt.junk_independence(res))
    ok = worst_fid >= FIDELITY_TOL and worst_junk <= 1e-9
    _verdict(
        8,
        ok,
        f"{len(strategies)} strategies, worst fidelity {worst_fid:.12f}, junk {worst_junk:.2e}",
    )


def test_criterion_09_backend_equivalence():
    """Exact (y, b, output) joints coincide; 10^4-sample streams agree <= 0.02.

    The statevector side samples from its cached measurement amplitudes (the
    live pipeline is tied to those in test_protocol4); the two-branch side
    runs its live sampler.  TV is taken on the output statistic, whose
    support is small enough for the 0.02 bound to be meaningful at 10^4.
    """
    from qfactory.sim import stage2_b_support

    samples = 10_000
    worst_exact = 0.0
    worst_tv = 0.0
    for k in range(5):
        client, key_msg = p4.client_init(TOY_MICRO, p4.PLAIN, seed=derive_seed(9, k))
        pk = client.pk
        params = pk.params
        nbits = params.total_bits
        table = lwe.f_bit_table(pk)
        rng = np.random.default_rng(derive_seed(9, k, "sv-sample"))

        # exact conditionals per image, kept for cached sampling
        images = []
        for packed_y in np.unique(table):
            branches = [int(v) for v in np.flatnonzero(table == packed_y)]
            cols = p4.honest_output_table(pk, branches, 0.0)
            norms2 = np.abs(cols[:, 0]) ** 2 + np.abs(cols[:, 1]) ** 2
            if len(branches) == 2:
                to_bits = lambda v: tuple((v >> j) & 1 for j in range(nbits))
                xb, xpb = to_bits(branches[0]), to_bits(branches[1])
                if xb[-1] == 1:
                    xb, xpb = xpb, xb
                diff, parity = stage2_b_support(xb, xpb, 0.0)
                if diff is None:
                    expect = np.full(1 << nbits, 1.0 / (1 << nbits))
                else:
                    dmask = sum(bit << j for j, bit in enumerate(diff))
                    beta = np.bitwise_count(np.arange(1 << nbits, dtype=np.int64) & dmask) & 1
                    expect = np.where(beta == parity, 2.0 / (1 << nbits), 0.0)
            else:
                expect = np.full(1 << nbits, 1.0 / (1 << nbits))
            worst_exact = max(worst_exact, float(np.max(np.abs(norms2 - expect))))
            images.append((int(packed_y), len(branches), norms2))

        counts = {"statevector": Counter(), "two_branch": Counter()}
        # cached statevector sampling
        y_weights = np.array([mult for _, mult, _ in images], dtype=float)
        y_cdf = np.cumsum(y_weights / y_weights.sum())
        for _ in range(samples):
            yi = int(np.searchsorted(y_cdf, rng.random(), side="right"))
            packed_y, _, norms2 = images[yi]
            b_cdf = np.cumsum(norms2)
            bidx = int(np.searchsorted(b_cdf, rng.random() * b_cdf[-1], side="right"))
            y = tuple(int(v) for v in lwe.unpack_image(params, packed_y))
            b = tuple((bidx >> j) & 1 for j in range(nbits))
            out = p4.finalize(client, y, b)
            counts["statevector"][(out.accepted, out.B1, out.B2, out.family)] += 1
        # live two-branch sampling
        for t in range(samples):
            reply = p4.server_honest(key_msg, "two_branch", derive_seed(9, k, "tb", t))
            out = p4.finalize(client, reply.y, reply.b)
            counts["two_branch"][(out.accepted, out.B1, out.B2, out.family)] += 1
        worst_tv = max(worst_tv, tv_distance(counts["statevector"], counts["two_branch"]))
    ok = worst_exact < 1e-9 and worst_tv <= 0.02
    _verdict(
        9,
        ok,
        f"exact joint gap {worst_exact:.2e}; sampled output TV {worst_tv:.4f} @ {samples}",
    )


def test_criterion_10_wire_fidelity_and_privacy():
    """Loopback == in-process bit for bit; schema rejects private fields."""
    master = 1010
    server = wire.serve("127.0.0.1", 0, master_seed=master)
    host, port = server.server_address
    identical = True
    try:
        chan = wire.SocketChannel(host, port)
        for run_id in range(8):
            remote = wire.run4_over_channel(chan, TOY_MICRO, master, run_id)
            local = wire.run4_over_channel(wire.local_session(master), TOY_MICRO, master, run_id)
            identical = identical and remote.transcript == local.transcript and remote.out == local.out
        chan.close()
        # run_protocol8 is run 0 of a local session under the same seed scheme
        chan = wire.SocketChannel(host, port)
        remote8 = wire.run8_over_channel(chan, TOY_MICRO, master, 0)
        chan.close()
        local8 = p8.run_protocol8(TOY_MICRO, master)
        identical = (
            identical
            and all(
                getattr(remote8, r).transcript == getattr(local8, r).transcript
                and getattr(remote8, r).out == getattr(local8, r).out
                for r in ("run1", "run2")
            )
            and (remote8.s1, remote8.s2, remote8.index) == (local8.s1, local8.s2, local8.index)
        )
    finally:
        server.shutdown()
        server.server_close()
    lint_ok = True
    for bad in ("a", "B1", "L", "d0", "trapdoor", "accepted"):
        try:
            wire.validate_message(wire.WireMessage("image", 0, {"y": [], bad: 1}))
            lint_ok = False
        except wire.WireError:
            pass
    ok = identical and lint_ok
    _verdict(10, ok, f"loopback identical: {identical}; privacy lint: {lint_ok}")


def test_oracle_check_report():
    """The packaged cross-validation driver finds zero mismatches."""
    rep = oracle.oracle_check(TOY_MICRO, trials=400, seed=1111)
    assert rep.invert_mismatches == 0
    assert rep.register_preimage_mismatches == 0
    assert rep.register_images_checked > 0
    assert rep.formula_failures == 0
    assert rep.corrupted_trapdoor_detected
