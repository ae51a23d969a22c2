"""Caller lint: every function, class, method and module constant in
src/qfactory has a use there, except the names listed below with the reason
each stays.  A method that overrides a hook of a base class from outside the
package has its use in that base."""

import ast
import importlib
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qfactory"

# criterion API: the estimators, reference strategies, servers and contracts
# that the acceptance criteria and the tests of their properties use
CRITERION_API = {
    "lwe.regularity_estimate", "lwe.two_preimage_fraction", "lwe.homomorphy_estimate",
    "lwe.hardcore_game", "lwe.adv_random", "lwe.adv_trapdoor", "lwe.adv_bruteforce",
    "protocol8.guess_stats", "wire.serve",
    "selftest.phi_family_strategy", "selftest.basis_leaking_strategy",
    "selftest.orthogonal_junk_strategy", "selftest.blindness_check",
    "wire.PRIVATE_FIELDS",  # criterion 10: no wire schema names a private field
}
# wrapped by perfbench/tracer.py, which times them where the benchmark calls them
TRACED = {
    "sim.StateVector.qubit_state", "sim.StateVector.x", "sim.StateVector.z",
    "sim.StateVector.r", "lwe.encode", "protocol4.run_protocol4", "transcripts.run8_record",
}
# test-only protocol code: XOR combining waits on one session run (ROADMAP item 6)
TEST_ONLY_PROTOCOL = {
    "abort.gad_xor", "abort.client_combine", "abort.beta", "abort.eta_bound",
    "abort.choose_params",
}
# references the tests compare against: add_z is the group operation the
# homomorphy tests check g against, decode_int the inverse of encode_int,
# drop_qubits the two-step form of measure(drop=True); params_from_obj is the
# reader whose rejections tests/test_wire.py pins
REFERENCES = {
    "lwe.add_z", "lwe.decode_int", "sim.StateVector.drop_qubits", "serde.params_from_obj",
}
ALLOWED = CRITERION_API | TRACED | TEST_ONLY_PROTOCOL | REFERENCES


def _references(trees: dict) -> dict:
    """(owner, name) -> [(module, line)] of every name use: owner is the
    module a bare or module-qualified name resolves to, None for any attribute
    not rooted in a module imported with `import x [as y]`."""
    refs = defaultdict(list)
    for mod, tree in trees.items():
        modules = {}  # local name -> qfactory module, from `from . import x as y`
        foreign = set()  # local names of modules from `import x [as y]`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        refs[node.module, alias.name].append((mod, node.lineno))
            elif isinstance(node, ast.Import):
                foreign.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[mod, node.id].append((mod, node.lineno))
            elif isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if not (isinstance(root, ast.Name) and root.id in foreign):
                    refs[None, node.attr].append((mod, node.lineno))
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    refs[modules[node.value.id], node.attr].append((mod, node.lineno))
    return refs


def _foreign_hooks(tree: ast.Module, cls: ast.ClassDef) -> set:
    """The attribute names of the bases of `cls` that are classes of modules
    imported with `import x [as y]`: a method of one of these names overrides
    a hook that the base calls, as socketserver calls `verify_request`."""
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    }
    return {
        name
        for base in cls.bases
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
        and base.value.id in modules
        for name in dir(getattr(importlib.import_module(modules[base.value.id]), base.attr))
    }


def _definitions(mod: str, tree: ast.Module):
    """(owner, dotted name, name, node) of each module-level function, class
    and constant, and of each class's methods and nested classes, less the
    methods that override a hook of a base from outside the package."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield mod, top.name, top.name, top
        if isinstance(top, ast.ClassDef):
            hooks = _foreign_hooks(tree, top)
            for node in top.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in hooks:
                    yield None, f"{top.name}.{node.name}", node.name, node
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            for target in top.targets if isinstance(top, ast.Assign) else [top.target]:
                if isinstance(target, ast.Name):
                    yield mod, target.id, target.id, top


def _uncalled(trees: dict) -> set:
    """Dotted names of the definitions in `trees` (module name -> parsed
    module) that no code in those modules outside their own body names."""
    refs = _references(trees)
    return {
        f"{mod}.{dotted}"
        for mod, tree in trees.items()
        for owner, dotted, name, node in _definitions(mod, tree)
        if not name.startswith("__")  # dunders are called or read implicitly
        and all(
            m == mod and node.lineno <= line <= node.end_lineno  # its own body
            for m, line in refs.get((owner, name), ())
        )
    }


def test_every_src_definition_has_a_src_caller_or_a_listed_reason():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    uncalled = _uncalled(trees)
    assert uncalled - ALLOWED == set(), "no use in src/qfactory and not allow-listed"
    assert ALLOWED - uncalled == set(), "allow-listed but used in src/qfactory, or gone"


def test_every_traced_name_is_wrapped_by_the_tracer(tracer):
    assert TRACED - {f"{mod}.{attr}" for mod, attr, _ in tracer.SPANS} == set()


VEC = """
import numpy as np
UNREAD = 1e-9
class Vec:
    def norm(self):
        return np.linalg.norm(self.amps)
"""


def _uncalled_with(use: str) -> set:
    header = "import numpy as np\nfrom .vec import Vec\n"
    return _uncalled({"vec": ast.parse(VEC), "use": ast.parse(header + use)})


def test_lint_tells_numpy_attributes_from_methods_and_reads_constants():
    assert _uncalled_with("X = np.linalg.norm(Vec())") == {"vec.UNREAD", "vec.Vec.norm", "use.X"}
    assert _uncalled_with("X = Vec().norm()") == {"vec.UNREAD", "use.X"}


HOOKS = """
import socketserver as ss
class Server(ss.TCPServer):
    def verify_request(self, request, client_address):
        return True
    def unused(self):
        pass
"""


def test_lint_takes_an_override_of_a_foreign_base_hook_as_called():
    assert _uncalled({"srv": ast.parse(HOOKS)}) == {"srv.Server", "srv.Server.unused"}
