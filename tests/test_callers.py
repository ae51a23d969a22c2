"""Caller lint: every function, class, method and module constant in
src/qfactory is reached there through uses, from module-level code, the
`cli.main` entry point, a method that overrides a hook of a base class from
outside the package (that base calls it) or a dunder of a reached class,
except the names listed below with the reason each stays.  A use inside a
function or class body counts only once that body is reached."""

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
ALLOWED = CRITERION_API | TRACED | TEST_ONLY_PROTOCOL


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
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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
    """(owner, dotted name, name, node, hook) of each module-level function,
    class and constant, and of each class's methods and nested classes; hook
    tells a method that overrides a hook of a base from outside the package."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield mod, top.name, top.name, top, False
        if isinstance(top, ast.ClassDef):
            hooks = _foreign_hooks(tree, top)
            for node in top.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    yield None, f"{top.name}.{node.name}", node.name, node, node.name in hooks
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            for target in top.targets if isinstance(top, ast.Assign) else [top.target]:
                if isinstance(target, ast.Name):
                    yield mod, target.id, target.id, top, False


def _uncalled(trees: dict, roots=()) -> set:
    """Dotted names of the definitions in `trees` (module name -> parsed
    module) that no chain of uses reaches from module-level code (a
    constant's value included), `cli.main`, a foreign base's hook or a
    dotted name in `roots`.  A dunder is reached with its class, as it is
    called or read implicitly, and never reported."""
    defs, todo = set(), [None, "cli.main", *roots]
    by_key, spans, dunders = defaultdict(list), defaultdict(list), defaultdict(list)
    for mod, tree in trees.items():
        for owner, dotted, name, node, hook in _definitions(mod, tree):
            full = f"{mod}.{dotted}"
            by_key[owner, name].append(full)
            if name.startswith("__"):
                dunders[full.rpartition(".")[0]].append(full)
            else:
                defs.add(full)
            if hook:
                todo.append(full)
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                spans[mod].append((node.lineno, node.end_lineno, full))
    uses = defaultdict(set)  # function or class body (None: module-level code) -> what it names
    for key, places in _references(trees).items():
        for mod, line in places:
            bodies = [(lo, full) for lo, hi, full in spans[mod] if lo <= line <= hi]
            uses[max(bodies)[1] if bodies else None].update(by_key.get(key, ()))  # the innermost
    reached = set()
    while todo:
        full = todo.pop()
        if full not in reached:
            reached.add(full)
            todo += [*uses[full], *dunders[full]]
    return defs - reached


def test_every_src_definition_has_a_src_caller_or_a_listed_reason():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    assert _uncalled(trees, ALLOWED) == set(), "reached from no src/qfactory root and not allow-listed"
    assert ALLOWED - _uncalled(trees) == set(), "allow-listed but used in src/qfactory, or gone"


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


CHAIN = """
def main():
    return used()
def used():
    return 1
def unused():
    return callee()
def callee():
    return 2
def recursive(k):
    return recursive(k - 1) if k else 0
"""


def test_lint_counts_only_uses_reached_from_a_root():
    assert _uncalled({"cli": ast.parse(CHAIN)}) == {"cli.unused", "cli.callee", "cli.recursive"}
    assert _uncalled({"cli": ast.parse(CHAIN)}, {"cli.unused"}) == {"cli.recursive"}
