"""Static checks on the source tree and the demos: every top-level import is
used, every private top-level name of the package is read, and every name the
package exports exists."""

import ast
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
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_top_level_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private names (one leading underscore) that a module of ``sources`` binds at
    its top level by a def, class or assignment, and that no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
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


def test_every_exported_name_is_an_attribute_of_the_package():
    assert [name for name in symsense.__all__ if not hasattr(symsense, name)] == []
