"""Static checks over the package source."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "primecensus"
# __init__ imports names to export them, not to use them.
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_finds_dead_names():
    source = "import os\nimport numpy as np\nfrom typing import Callable, Iterator\n\ndef f(x: Iterator):\n    return np.sum(x)\n"
    assert unused_imports(source) == ["os", "Callable"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_definitions(sources: dict, entry_points=()) -> list:
    """(module, name) of each top-level function, class and constant that no
    module reads, in source order.

    A read is a loaded ``Name``, an attribute, or a name imported from a
    module (so ``__init__``'s exports count); dunder names are exempt.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set(entry_points)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            dead += [(module, name) for name in names if name not in read and not name.startswith("__")]
    return dead


def test_dead_definitions_finds_unread_names():
    sources = {
        "a.py": "from . import b\nLIMIT = 3\n_TABLE = {1: 2}\n\ndef _helper():\n    return LIMIT\n\ndef main():\n    return b.used()\n",
        "b.py": "def used():\n    return 1\n\nclass Orphan:\n    pass\n",
        "__init__.py": "from .b import used\n__version__ = '1'\n",
    }
    assert dead_definitions(sources, {"main"}) == [("a.py", "_TABLE"), ("a.py", "_helper"), ("b.py", "Orphan")]


def test_package_reads_every_definition():
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8").partition("[project.scripts]")[2].partition("\n[")[0]
    entry_points = re.findall(r':(\w+)"', scripts)
    assert entry_points == ["entry_point"]
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_definitions(sources, entry_points) == []
