"""Cross-validation drivers: every closed form against its brute-force oracle.

These checks are what the test suite automates; the CLI exposes them so a
fresh environment can be validated from the command line.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import lwe, protocol4 as p4, protocol8 as p8, abort, seeds
from .params import ParamSet
from .seeds import derive_seed
from .sim import QubitDescription, fidelity, row_branches
from .stats import tv_distance


@dataclass
class OracleReport:
    invert_mismatches: int
    invert_images_checked: int
    register_preimage_mismatches: int
    register_images_checked: int
    formula_failures: int
    formula_cases: int
    tv_outputs: float
    samples: int
    corrupted_trapdoor_detected: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _invert_vs_enumeration(pk, td, table) -> tuple[int, int]:
    """`invert` against the key's full image map, and on 50 random images."""
    mismatches = 0
    for y, want in table.items():
        got = lwe.invert(td, pk, np.array(y))
        if list(got) != list(want):
            mismatches += 1
    # also probe images with no preimages
    params = pk.params
    rng = seeds.rng(1)
    for _ in range(50):
        y = tuple(int(v) for v in rng.integers(0, params.q, size=params.m))
        got = lwe.invert(td, pk, np.array(y))
        want = tuple(table.get(y, ()))
        if tuple(got) != want:
            mismatches += 1
    return mismatches, len(table) + 50


def _register_search_vs_table(pk) -> tuple[int, int]:
    """register_preimages against the truth table on every image of the key."""
    table = lwe.f_bit_table(pk)
    images = np.unique(table)
    mismatches = sum(
        lwe.register_preimages(pk, int(v)) != np.flatnonzero(table == v).tolist() for v in images
    )
    return mismatches, len(images)


def _formula_regressions(params: ParamSet, seed: int) -> tuple[int, int]:
    """Stage-2 descriptions (both variants), merge L, and combine bits."""
    failures = 0
    cases = 0
    client_p, _ = p4.client_init(params, p4.PLAIN, derive_seed(seed, "fp"))
    client_r = replace(client_p, variant=p4.ROTATED)
    table = lwe.f_bit_table(client_p.pk)
    rng = seeds.rng(derive_seed(seed, "fy"))
    for packed_y in rng.choice(np.unique(table), size=12, replace=False):
        branches = [int(v) for v in np.flatnonzero(table == packed_y)]
        y = lwe.unpack_image(params, int(packed_y))
        for theta, client in ((0.0, client_p), (np.pi / 2, client_r)):
            rows = p4.honest_output_table(client_p.pk, branches, theta)
            for b, _, held in row_branches(rows):
                cases += 1
                if fidelity(p4.finalize(client, y, b).qubit(), held) < 1 - 1e-9:
                    failures += 1
    # merge sweep: the client's run8 rule on every BB84 and equatorial input pair
    for B1, B2, B1p, B2p in itertools.product((0, 1), repeat=4):
        in1, in2 = QubitDescription.bb84(B1, B2), QubitDescription.eight(2 * B1p + 4 * B2p)
        out1 = p4.OutputIndex4(B1, B2, p4.TWO_PREIMAGES, abort.BB84_FAMILY[B1])
        out2 = p4.OutputIndex4(B1p, B2p, p4.TWO_PREIMAGES, (p4.PAULI_X, p4.PAULI_Y)[B1p])
        for s1, s2, _, out in p8.merge_branches(in1, in2):
            cases += 1
            if fidelity(out, p8.eight_index(out1, out2, s1, s2).qubit()) < 1 - 1e-9:
                failures += 1
    # combine sweep at t = 2
    for combo in range(16):
        bits = [((combo >> 1) & 1, combo & 1), ((combo >> 3) & 1, (combo >> 2) & 1)]
        states = [QubitDescription.bb84(b1, b2) for b1, b2 in bits]
        outs = [p4.OutputIndex4(b1, b2, p4.TWO_PREIMAGES, abort.BB84_FAMILY[b1]) for b1, b2 in bits]
        for s_pairs, _, out in abort.gad_xor_branches(states):
            cases += 1
            b1, b2 = abort.combine_bits(outs, s_pairs)
            if fidelity(out, QubitDescription.equatorial(b1 + 2 * b2)) < 1 - 1e-9:
                failures += 1
    return failures, cases


def _backend_tv(params: ParamSet, samples: int, seed: int) -> float:
    """Sampled agreement of the two backends on the coarse (acceptance,
    index, family) output statistic."""
    client, key_msg = p4.client_init(params, p4.PLAIN, derive_seed(seed, "tvk"))
    counts = {"statevector": Counter(), "two_branch": Counter()}
    for backend in counts:
        for t in range(samples):
            reply = p4.server_honest(key_msg, backend, derive_seed(seed, backend, t))
            out = p4.finalize(client, reply.y, reply.b)
            counts[backend][(out.accepted, out.B1, out.B2, out.family)] += 1
    return tv_distance(counts["statevector"], counts["two_branch"])


def oracle_check(params: ParamSet, trials: int, seed: int) -> OracleReport:
    pk, td = lwe.gen(params, derive_seed(seed, "key"))
    table = lwe.exhaustive_image_map(pk)
    inv_mism, inv_total = _invert_vs_enumeration(pk, td, table)
    reg_mism, reg_total = _register_search_vs_table(pk)
    form_fail, form_cases = _formula_regressions(params, seed)
    tv_out = _backend_tv(params, trials, seed)

    # fault injection: `invert` never reads the plant, so a trapdoor whose d0 is
    # flipped is caught by the identity h(z) xor h(z') = d0 on any image with
    # two preimages
    bad_z0 = lwe.DomainElement(td.z0.s, td.z0.e, td.z0.d ^ 1, None)
    bad_td = lwe.Trapdoor(gadget=td.gadget, z0=bad_z0)
    corrupted_detected = False
    for y, want in table.items():
        if len(want) == 2:
            got = lwe.invert(bad_td, pk, np.array(y))
            if len(got) == 2 and (lwe.h(got[0]) ^ lwe.h(got[1])) != bad_td.d0:
                corrupted_detected = True
                break
    return OracleReport(
        invert_mismatches=inv_mism,
        invert_images_checked=inv_total,
        register_preimage_mismatches=reg_mism,
        register_images_checked=reg_total,
        formula_failures=form_fail,
        formula_cases=form_cases,
        tv_outputs=tv_out,
        samples=trials,
        corrupted_trapdoor_detected=corrupted_detected,
    )
