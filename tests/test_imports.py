"""Static checks on the source tree and the demos: every top-level import is
used, and every name the package exports exists."""

import ast
from pathlib import Path

import pytest

import symsense

ROOT = Path(__file__).resolve().parent.parent
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


def test_every_exported_name_is_an_attribute_of_the_package():
    assert [name for name in symsense.__all__ if not hasattr(symsense, name)] == []
