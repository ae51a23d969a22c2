"""Caller lint: every function, class and method in src/qfactory has a caller
there, except the names listed below with the reason each stays."""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qfactory"

# criterion API: the estimators, reference strategies and servers that the
# acceptance criteria and the tests of their properties call
CRITERION_API = {
    "lwe.regularity_estimate", "lwe.two_preimage_fraction", "lwe.homomorphy_estimate",
    "lwe.hardcore_game", "lwe.adv_random", "lwe.adv_trapdoor", "lwe.adv_bruteforce",
    "protocol8.guess_stats", "sim.stage2_b_support", "wire.serve",
    "selftest.phi_family_strategy", "selftest.basis_leaking_strategy",
    "selftest.orthogonal_junk_strategy", "selftest.blindness_check",
}
# wrapped by perfbench/tracer.py, which times them where the benchmark calls them
TRACED = {
    "sim.sample_b", "sim.StateVector.qubit_state", "sim.StateVector.x", "sim.StateVector.z",
    "sim.StateVector.r", "lwe.encode", "protocol4.run_protocol4", "transcripts.run8_record",
}
# test-only protocol code: XOR combining waits on one session run (ROADMAP
# item 6), the fixed-reply adversary on one deviating-server seam (item 4)
TEST_ONLY_PROTOCOL = {
    "abort.gad_xor", "abort.client_combine", "abort.beta", "abort.eta_bound",
    "abort.choose_params", "protocol4.fixed_reply_strategy",
}
# leftovers that only tests call, still to be folded into their tests or
# given a caller (ROADMAP item 13)
LEFTOVERS = {
    "lwe.add_z", "lwe.decode", "sim.StateVector.drop_qubits", "protocol8.EightIndex.bits",
    "abort.ChunkConfig.t", "serde.params_from_obj",
}
ALLOWED = CRITERION_API | TRACED | TEST_ONLY_PROTOCOL | LEFTOVERS


def _references(trees: dict) -> dict:
    """(owner, name) -> [(module, line)] of every name use: owner is the
    module a bare or module-qualified name resolves to, None for any attribute."""
    refs = defaultdict(list)
    for mod, tree in trees.items():
        modules = {}  # local name -> qfactory module, from `from . import x as y`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        refs[node.module, alias.name].append((mod, node.lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[mod, node.id].append((mod, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs[None, node.attr].append((mod, node.lineno))
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    refs[modules[node.value.id], node.attr].append((mod, node.lineno))
    return refs


def _uncalled() -> set:
    """Dotted names of the module-level functions and classes, and their
    methods, that no code in src/qfactory outside their own body names."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    refs = _references(trees)
    found = set()
    for mod, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(mod, top.name, top)]
            if isinstance(top, ast.ClassDef):
                members += [
                    (None, f"{top.name}.{node.name}", node)
                    for node in top.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")  # dunders are called implicitly
                ]
            for owner, dotted, node in members:
                if all(
                    m == mod and node.lineno <= line <= node.end_lineno  # its own body
                    for m, line in refs.get((owner, node.name), ())
                ):
                    found.add(f"{mod}.{dotted}")
    return found


def test_every_src_definition_has_a_src_caller_or_a_listed_reason():
    uncalled = _uncalled()
    assert uncalled - ALLOWED == set(), "no caller in src/qfactory and not allow-listed"
    assert ALLOWED - uncalled == set(), "allow-listed but called in src/qfactory, or gone"
