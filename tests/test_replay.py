"""Replay re-derives every record with the live client's rules.

A record whose client-derived field (accepted, B1, B2, family, usable, L)
differs from the re-derived one, in type or in value, is a mismatch.  A
record replay cannot read with its exact meaning is a TranscriptError.
"""

import copy
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfactory import cli, lwe, protocol4 as p4, protocol8 as p8, serde, transcripts
from qfactory.params import TOY_MICRO, ParamSet, paper_params


def _first(record, has):
    """record(seed) at the first seed from 0 whose record has the property."""
    return next(rec for rec in map(record, itertools.count()) if has(rec))


def _run4(seed):
    return transcripts.run4_record(p4.run_protocol4(TOY_MICRO, seed), seed, seed)


def _run8(seed):
    return transcripts.run8_record(p8.run_protocol8(TOY_MICRO, seed), seed, seed)


# TOY_MICRO records at the first seed with each property; the run id is the seed
RUN4 = _first(_run4, lambda r: r["B1"] == 1)
USABLE = _first(_run8, lambda r: r["usable"])
UNUSABLE = _first(_run8, lambda r: not r["usable"])

DERIVED = {"accepted", "B1", "B2", "family", "usable", "L"}
DELETE = object()


def _no_gadget_key(q):
    """Edits that give a run4 record a paper-profile key of n = m = 1 at
    modulus q, with no gadget trapdoor, and a y and b that fit it."""
    params = ParamSet(n=1, q=q, m=1, mu=1, mu_prime=0, profile="paper")
    pk = lwe.PublicKey(K=np.ones((1, 1), np.int64), y0=np.zeros(1, np.int64), params=params)
    td = lwe.Trapdoor(gadget=None, z0=lwe.DomainElement((0,), (0,), 0))
    return (
        (("key_msg",), serde.key_to_obj(pk)),
        (("trapdoor",), serde.trapdoor_to_obj(td)),
        (("y",), ["0"]),
        (("b",), "0" * params.total_bits),
    )


# inverting without a gadget scans all q^n values of s: 2^44 of them here
NO_GADGET_Q44 = (RUN4, *_no_gadget_key(1 << 44))


def _replay(path, *bodies):
    with transcripts.TranscriptWriter(path) as w:
        for body in bodies:
            w.append(body)
    return transcripts.replay(path)


def _edited(base, *edits):
    """A deep copy of `base` with each (field path, value) edit applied."""
    body = copy.deepcopy(base)
    for path, value in edits:
        node = body
        for key in path[:-1]:
            node = node[key]
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return body


def test_base_records_verify(tmp_path):
    assert RUN4["B1"] == 1 and USABLE["usable"] and not UNUSABLE["usable"]
    report = _replay(tmp_path / "runs.jsonl", RUN4, USABLE, UNUSABLE)
    assert (report.records, report.verified_runs, report.mismatches) == (3, 3, [])


MISMATCHES = {
    "family-other": (RUN4, (("family",), p4.PAULI_Y)),
    "family-nonsense": (RUN4, (("family",), "nonsense")),
    "B1-bool": (RUN4, (("B1",), True)),
    "run8-B2-bool": (USABLE, (("run2", "B2"), bool(USABLE["run2"]["B2"]))),
    "run8-family": (USABLE, (("run1", "family"), "nonsense")),
    "usable-as-unusable": (USABLE, (("usable",), False), (("L",), None)),
    "unusable-as-usable": (UNUSABLE, (("usable",), True), (("L",), 0)),
    "L-str": (USABLE, (("L",), str(USABLE["L"]))),
    "L-other": (USABLE, (("L",), (USABLE["L"] + 1) % 8)),
    "usable-yes": (USABLE, (("usable",), "yes")),
}


@pytest.mark.parametrize("case", MISMATCHES.values(), ids=MISMATCHES.keys())
def test_changed_derived_field_is_a_mismatch(tmp_path, case):
    base, *edits = case
    report = _replay(tmp_path / "runs.jsonl", _edited(base, *edits))
    assert report.verified_runs == 0
    assert len(report.mismatches) == 1


UNREADABLE = {
    "s1-plus-2": (USABLE, (("s1",), USABLE["s1"] + 2)),
    "s1-str": (USABLE, (("s1",), str(USABLE["s1"]))),
    "s2-bool": (USABLE, (("s2",), bool(USABLE["s2"]))),
    "y-ints": (RUN4, (("y",), [int(v) for v in RUN4["y"]])),
    "y-floats": (RUN4, (("y",), [int(v) + 0.9 for v in RUN4["y"]])),
    "y-leading-space": (RUN4, (("y",), [" " + v for v in RUN4["y"]])),
    "y-leading-zero": (RUN4, (("y",), ["0" + v for v in RUN4["y"]])),
    "b-int-list": (RUN4, (("b",), [int(ch) for ch in RUN4["b"]])),
    "b-bool-list": (RUN4, (("b",), [ch == "1" for ch in RUN4["b"]])),
    "variant-bogus": (RUN4, (("variant",), "bogus")),
    "run8-variants-swapped": (
        USABLE,
        (("run1", "variant"), p4.ROTATED),
        (("run2", "variant"), p4.PLAIN),
    ),
    "seed-float": (RUN4, (("seeds", "run"), 1.5)),
    "run8-seed-float": (USABLE, (("run2", "seeds", "run"), 1.5)),
    "plant-e-float": (RUN4, (("trapdoor", "t", "z0", "e"), [0.5] * TOY_MICRO.m)),
    "d0-bool": (RUN4, (("trapdoor", "t", "d0"), bool(RUN4["trapdoor"]["t"]["d0"]))),
    "key-version-bool": (RUN4, (("key_msg", "version"), True)),
    "trapdoor-version-float": (RUN4, (("trapdoor", "version"), 1.0)),
    "missing-s1": (USABLE, (("s1",), DELETE)),
    "missing-run2": (USABLE, (("run2",), DELETE)),
    "missing-y": (RUN4, (("y",), DELETE)),
    "kind-run9": (RUN4, (("kind",), "run9")),
    "run4-run-id-bool": (RUN4, (("run_id",), False)),
    "run8-sub-kind": (USABLE, (("run1", "kind"), "nonsense")),
    "run8-run-id-float": (USABLE, (("run_id",), 1.5)),
    "run8-run-id-object": (USABLE, (("run_id",), {"a": 1})),
    "run8-sub-run-id": (USABLE, (("run2", "run_id"), USABLE["run_id"] + 1)),
    "run8-seeds-empty": (USABLE, (("seeds",), {})),
    "run8-seed-bool": (USABLE, (("seeds", "run"), True)),
    "run8-sub-seed-other": (USABLE, (("run1", "seeds", "run"), USABLE["seeds"]["run"] + 1)),
    "no-gadget-key-q-2^44": NO_GADGET_Q44,
}


@pytest.mark.parametrize("case", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_unreadable_field_is_a_transcript_error(tmp_path, case):
    base, *edits = case
    with pytest.raises(transcripts.TranscriptError):
        _replay(tmp_path / "runs.jsonl", _edited(base, *edits))


def test_cli_replay_of_a_no_gadget_key_above_enumeration_scale_is_one_error_line(
    tmp_path, capsys
):
    path = tmp_path / "runs.jsonl"
    with transcripts.TranscriptWriter(path) as w:
        w.append(_edited(*NO_GADGET_Q44))
    assert cli.main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"qfactory replay: {path}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_a_line_is_the_compact_canonical_record(tmp_path):
    path = tmp_path / "runs.jsonl"
    _replay(path, RUN4, USABLE)
    for line in path.read_text().splitlines():
        assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))


def test_a_file_in_the_spaced_layout_replays(tmp_path):
    path = tmp_path / "runs.jsonl"
    _replay(path, RUN4, USABLE, UNUSABLE)
    spaced = [json.dumps(json.loads(ln), sort_keys=True) for ln in path.read_text().splitlines()]
    assert all('"body": {' in ln for ln in spaced)
    path.write_text("\n".join(spaced) + "\n")
    report = transcripts.replay(path)
    assert (report.records, report.verified_runs, report.mismatches) == (3, 3, [])


def _rewrite(path, edit):
    """Rewrite each line of the file as edit(position, record) leaves it."""
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    for i, rec in enumerate(recs):
        edit(i, rec)
    path.write_text("".join(json.dumps(rec) + "\n" for rec in recs))


# the three seq fields, and the line of the first one that is not its position
SEQS = {
    "str": (["x", 1, 2], 0), "repeated": ([0, 0, 2], 1), "gap": ([0, 1, 3], 2),
    "from-1": ([1, 2, 3], 0), "bool": ([0, True, 2], 1), "float": ([0, 1.0, 2], 1),
}


@pytest.mark.parametrize("seqs, line", SEQS.values(), ids=SEQS.keys())
def test_seq_other_than_the_record_position_is_a_transcript_error(tmp_path, seqs, line):
    path = tmp_path / "runs.jsonl"
    _replay(path, RUN4, USABLE, UNUSABLE)
    _rewrite(path, lambda i, rec: rec.update(seq=seqs[i]))
    with pytest.raises(transcripts.TranscriptError, match=f"line {line}: "):
        transcripts.replay(path)


ENVELOPES = {
    "added-note": lambda rec: rec.update(note=""),
    "no-seq": lambda rec: rec.pop("seq"),
    "prev-int": lambda rec: rec.update(prev=0),
    "hash-list": lambda rec: rec.update(hash=[rec["hash"]]),
}


@pytest.mark.parametrize("edit", ENVELOPES.values(), ids=ENVELOPES.keys())
def test_a_line_other_than_the_exact_envelope_is_a_transcript_error(tmp_path, edit):
    path = tmp_path / "runs.jsonl"
    _replay(path, RUN4, USABLE, UNUSABLE)
    _rewrite(path, lambda i, rec: i == 2 and edit(rec))
    with pytest.raises(transcripts.TranscriptError, match="line 2: record"):
        transcripts.replay(path)


def _honest_image(key_msg, rng):
    """The image of a sampled input and a uniform record, as the paper-size
    benchmark client's server answers."""
    params = key_msg.pk.params
    y = lwe.f(key_msg.pk, lwe.sample_domain_element(params, rng))
    b = rng.integers(0, 2, size=params.total_bits)
    return p4.StrategyReply(y=tuple(y.tolist()), b=tuple(b.tolist()), held=None)


@pytest.mark.parametrize(
    "variant, seed", [(p4.PLAIN, 4), (p4.ROTATED, 2)], ids=[p4.PLAIN, p4.ROTATED]
)
def test_paper_size_record_replays(tmp_path, variant, seed):
    params = paper_params(16)
    res = p4.run_protocol4(params, seed, strategy=_honest_image, variant=variant)
    # two preimages with opposite hardcore bits: the index is the record's parity,
    # here against the bit-by-bit sums
    z, zp = lwe.invert(res.client.trapdoor, res.client.pk, res.transcript.y)
    x, xp = lwe.encode(params, z), lwe.encode(params, zp)
    beta = sum(bi & (a ^ c) for bi, a, c in zip(res.transcript.b, x, xp)) % 2
    if variant == p4.PLAIN:
        want = (1, beta)
    else:
        k = ((2 * z.d - 1) * (sum(xp) - sum(x)) + 2 * beta) % 4
        want = (k % 2, k // 2)
    assert z.d != zp.d and (res.out.B1, res.out.B2) == want
    report = _replay(tmp_path / "paper.jsonl", transcripts.run4_record(res, 0, seed))
    assert (report.records, report.verified_runs, report.mismatches) == (1, 1, [])


def test_replay_checks_y_and_b_once_at_the_serde_readers(tmp_path, monkeypatch):
    # the serde readers are replay's one check of y and b; finalize's core
    # must not run the image rule or the bit rule on them again
    paper = p4.run_protocol4(paper_params(16), 4, strategy=_honest_image)
    bodies = USABLE, transcripts.run4_record(paper, 0, 4)
    calls = []

    def counted(name):
        rule = getattr(lwe, name)

        def call(*args):
            calls.append(name)
            return rule(*args)

        return call

    for name in ("check_image", "check_bits"):
        monkeypatch.setattr(lwe, name, counted(name))
    report = _replay(tmp_path / "both.jsonl", *bodies)
    assert (report.records, report.verified_runs, report.mismatches) == (2, 2, [])
    assert calls == []


def test_paper_size_record_is_at_most_180_kb():
    # format 2 writes K as base64 of int64 bytes and R as packed bits (310 KB as decimal text)
    res = p4.run_protocol4(paper_params(16), 4, strategy=_honest_image)
    body = transcripts.run4_record(res, 0, 4)
    assert len(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()) <= 180_000


@pytest.mark.parametrize("body", [[RUN4], "run4", 5, None], ids=["list", "str", "int", "null"])
def test_non_object_body_is_a_transcript_error(tmp_path, body):
    with pytest.raises(transcripts.TranscriptError):
        _replay(tmp_path / "runs.jsonl", body)


# ---------------------------------------------------------------------------
# fuzzing: one field at any depth replaced by an arbitrary JSON value

_SCALAR = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
_JSON = (
    _SCALAR
    | st.lists(_SCALAR, max_size=3)
    | st.dictionaries(st.text(max_size=4), _SCALAR, max_size=3)
)


def _paths(node, prefix=()):
    """The path of every field and list entry in a JSON value, at any depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [p for k, v in items for p in [prefix + (k,), *_paths(v, prefix + (k,))]]


_BASES = [(base, _paths(base)) for base in (RUN4, USABLE, UNUSABLE)]


@settings(max_examples=300)
@given(data=st.data())
def test_replay_of_a_replaced_field_is_a_report_or_a_transcript_error(tmp_path_factory, data):
    base, paths = data.draw(st.sampled_from(_BASES), label="base")
    path = data.draw(st.sampled_from(paths), label="path")
    value = data.draw(_JSON, label="value")
    old = base
    for key in path:
        old = old[key]
    try:
        report = _replay(tmp_path_factory.getbasetemp() / "fuzz.jsonl", _edited(base, (path, value)))
    except transcripts.TranscriptError:
        return
    assert report.records == 1
    if path[-1] in DERIVED and repr(value) != repr(old):
        assert report.verified_runs == 0 and len(report.mismatches) == 1
