"""Static checks on the source tree and the demos: every import is used (a
top-level one by its module, one inside a function by that function), every
private top-level name of the package is read, every public one and every
public method or property of its classes is read by what runs, every name the
package exports exists, and the Protocol-1 round's rules and the noise layer's
lgamma table are each read in one place."""

import ast
import importlib
from pathlib import Path

import pytest

import symsense

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/symsense/*.py"))
MODULES = sorted(
    p for p in [*ROOT.glob("src/symsense/*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py")]
    if p.name != "__init__.py"  # the package's re-exports are read by its users
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that the module never reads."""
    tree = ast.parse(source)
    return _unread([(tree, tree.body)])


def unused_function_imports(source: str) -> list[str]:
    """Names bound by an import inside a function that the function never reads."""
    functions = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return _unread([(fn, _own_imports(fn)) for fn in functions])


def _own_imports(fn):
    """The import statements of ``fn``'s body, outside the functions and classes it defines."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _unread(scopes) -> list[str]:
    """For each (scope node, import statements) pair, the names the imports bind
    that the scope never reads, in line order."""
    unread = []
    for scope, imports in scopes:
        bound = {}
        for node in imports:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(line, name) for name, line in bound.items() if name not in read]
    return [f"{name} (line {line})" for line, name in sorted(unread)]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 3)"]


def test_unused_imports_inside_functions_are_found():
    source = (
        "import json\n"
        "def f():\n"
        "    import os, sys\n"
        "    from math import pi\n"
        "    def g():\n"
        "        from math import tau\n"
        "        return sys.argv\n"
        "    return g\n"
        "def h():\n"
        "    if True:\n"
        "        import csv\n"
        "    return json, pi\n"
    )
    # f's os and pi are read by neither f nor g; h's csv is not read by h
    assert unused_function_imports(source) == ["os (line 3)", "pi (line 4)", "tau (line 6)", "csv (line 11)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_top_level_import_is_read(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_inside_a_function_is_read(path):
    assert unused_function_imports(path.read_text()) == []


def _loads(node) -> set[str]:
    """The names and attributes that ``node`` and its children read."""
    return {
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(node)
        if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load)
    }


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private names (one leading underscore) that a module of ``sources`` binds at
    its top level by a def, class or assignment, and that no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_loads, trees.values()))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [
                f"{module}: {name} (line {node.lineno})"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    return unread


def test_unread_private_names_are_found():
    sources = {
        "a": "_A, _B = 1, 2\n_C: int = 3\n__all__ = []\ndef _f(): return _A\nclass _K: pass\n",
        "b": "import a\nprint(a._C, a._f())\ndef g(): _B = 1\n",
    }
    assert unread_private_names(sources) == ["a: _B (line 1)", "a: _K (line 5)"]


def test_every_private_top_level_name_is_read():
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert unread_private_names(sources) == []


def unread_public_names(package: dict[str, str], others) -> list[str]:
    """Public functions and classes that a module of ``package`` defines at its
    top level and that no other top-level statement of the package and no
    source of ``others`` reads, as a name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    outside = set().union(*(_loads(ast.parse(source)) for source in others))
    statements = [(node, _loads(node)) for tree in trees.values() for node in tree.body]
    return [
        f"{module}: {node.name} (line {node.lineno})"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in outside
        and not any(node.name in loads for other, loads in statements if other is not node)
    ]


def test_unread_public_names_are_found():
    package = {
        "a": "def f(): return f()\ndef g(): pass\nclass K: pass\ndef h(): return b.k\n",
        "b": "def k(): pass\nx = a.g\ndef _p(): pass\n",
    }
    # f is read only inside itself and K and h not at all; b reads k and g, and _p is private
    assert unread_public_names(package, []) == ["a: f (line 1)", "a: K (line 3)", "a: h (line 4)"]
    assert unread_public_names(package, ["print(h, K())"]) == ["a: f (line 1)"]


# public names that no command, check, demo or benchmark reads, and why they stay
KEPT_UNREAD = {
    "binom_parity_sum": "the paper's closed form of the parity-split binomial power sums",
    "binom_exp_sum": "the paper's closed form of the phase-weighted binomial sums",
    "bound_checkers": "the paper's single-deletion perturbation and Taylor bounds",
    "phi11_ratio": "the paper's single-deletion phase constant, which criterion 7 states",
    "protocol1_mismatches": "verify's one Protocol-1 reference-vs-batch comparison",
}


def what_runs() -> list[str]:
    """The sources outside the package that run it: the demos, the benchmark and the tools."""
    paths = [*ROOT.glob("demos/*.py"), *ROOT.glob("bench/**/*.py"), *ROOT.glob("tools/*.py")]
    return [path.read_text() for path in paths]


def test_every_public_top_level_name_is_read_by_what_runs():
    # a reference only the tests read belongs in the tests
    package = {path.name: path.read_text() for path in PACKAGE}
    unread = {entry.split()[1]: entry for entry in unread_public_names(package, what_runs())}
    exempt = {*symsense.__all__, *KEPT_UNREAD}
    assert [entry for name, entry in unread.items() if name not in exempt] == []
    assert sorted(KEPT_UNREAD) == sorted(set(unread) - set(symsense.__all__))  # no stale entry


def unread_public_members(package: dict[str, str], others) -> list[str]:
    """Public methods and properties (static and class methods too) of the top-level
    classes of ``package`` that no source of ``others`` and no code of the package
    outside the member's own body reads, as a name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    outside = set().union(*(_loads(ast.parse(source)) for source in others))
    # a class's own statements are separate units, so that a member does not read itself
    units = [
        unit
        for tree in trees.values()
        for node in tree.body
        for unit in ([*node.decorator_list, *node.bases, *node.body]
                     if isinstance(node, ast.ClassDef) else [node])
    ]
    loads = [(unit, _loads(unit)) for unit in units]
    return [
        f"{module}: {cls.name}.{node.name} (line {node.lineno})"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in outside
        and not any(node.name in read for unit, read in loads if unit is not node)
    ]


def test_unread_public_members_are_found():
    package = {
        "a": (
            "@dataclass\n"
            "class K:\n"
            "    x: int = 0\n"
            "    def f(self): return self.f()\n"
            "    @property\n"
            "    def p(self): return self.x\n"
            "    @staticmethod\n"
            "    def s(): return K.c()\n"
            "    @classmethod\n"
            "    def c(cls): pass\n"
            "    def _q(self): pass\n"
            "def g(k): return k.p\n"
        ),
    }
    # f is read only inside itself and s not at all; g reads p, s reads c, _q is private
    # and the field x is no member
    assert unread_public_members(package, []) == ["a: K.f (line 4)", "a: K.s (line 8)"]
    assert unread_public_members(package, ["K.s()"]) == ["a: K.f (line 4)"]


def test_a_member_that_only_tests_read_is_found():
    package = {path.name: path.read_text() for path in PACKAGE}
    before = {entry.split()[1] for entry in unread_public_members(package, what_runs())}
    planted = "    def planted(self):\n        return 0\n\n    def norm_sq(self)"
    package["symcore.py"] = package["symcore.py"].replace("    def norm_sq(self)", planted)
    a_test = "def test_planted():\n    assert SymState(0, [1]).planted() == 0\n"
    after = {entry.split()[1] for entry in unread_public_members(package, what_runs())}
    assert after == before | {"SymState.planted"}
    # only the test's read would keep it
    kept = {entry.split()[1] for entry in unread_public_members(package, [*what_runs(), a_test])}
    assert kept == before


# public members that no command, check, demo, benchmark or tool reads, and why they stay
KEPT_UNREAD_MEMBERS = {
    "BoundCheck.holds": "the verdict of bound_checkers, which is kept for the paper",
}


def test_every_public_member_is_read_by_what_runs():
    # a member only the tests read belongs in the tests
    package = {path.name: path.read_text() for path in PACKAGE}
    unread = {entry.split()[1]: entry for entry in unread_public_members(package, what_runs())}
    assert [entry for name, entry in unread.items() if name not in KEPT_UNREAD_MEMBERS] == []
    assert sorted(KEPT_UNREAD_MEMBERS) == sorted(unread)  # no stale entry


def readers(source: str, names) -> dict[str, list[str]]:
    """For each of ``names``, the functions of ``source`` that read it (call it or
    pass it on), by qualified name such as ``Class.method``, sorted; a read outside
    any function is ``<module>``."""
    found = {name: set() for name in names}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) and child.id in found:
                found[child.id].add(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return {name: sorted(scopes) for name, scopes in found.items()}


def test_readers_are_found():
    source = (
        "from m import f, g\n"
        "x = g(1)\n"
        "def a():\n"
        "    return f(2)\n"
        "class K:\n"
        "    def b(self):\n"
        "        def c():\n"
        "            return map(f, [])\n"
        "        return c\n"
    )
    assert readers(source, ("f", "g", "h")) == {"f": ["K.b.c", "a"], "g": ["<module>"], "h": []}


# the closed forms and lattice sums of a Protocol-1 round, and who may read them: the
# round law (which the full-vector reference reads for its phases) and the abort bound
ROUND_RULES = ("pflag_closed_form", "zeta", "zeta_derivative", "one_deletion_ratios", "_phase_step")
ROUND_RULE_READERS = {"round_law", "ProtocolConfig.failure_bound"}


def test_the_round_rules_are_read_only_by_the_round_law():
    found = readers((ROOT / "src/symsense/protocols.py").read_text(), ROUND_RULES)
    assert {name: sorted(set(scopes) - ROUND_RULE_READERS) for name, scopes in found.items()} == {
        name: [] for name in ROUND_RULES
    }
    assert all("round_law" in found[name] for name in ROUND_RULES)


def test_the_lgamma_table_is_read_only_by_the_damping_law():
    # deletions take exact integer ratios; only damping's float gamma powers need lgamma
    found = readers((ROOT / "src/symsense/noise.py").read_text(), ("_lgamma_table",))
    assert found == {"_lgamma_table": ["_damping_probs"]}


def test_every_exported_name_is_an_attribute_of_the_package():
    assert [name for name in symsense.__all__ if not hasattr(symsense, name)] == []


def test_the_package_imports_each_exported_name_from_its_layer_on_first_use():
    for name in symsense.__all__:
        home = importlib.import_module(f"symsense.{symsense._HOMES[name]}")
        assert getattr(symsense, name) is getattr(home, name), name
        assert name in dir(symsense)
    assert "__version__" in dir(symsense)
    with pytest.raises(AttributeError, match="no attribute 'not_exported'"):
        symsense.not_exported
