"""Every module of the package uses each name it imports, every private
top-level name the package defines is read somewhere in the package, and
the package imports nothing beyond the standard library and numpy, its one
declared dependency.

``__init__.py`` is exempt from the unused-import check: it imports names
to export them.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "outpaint"


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports and never reads.

    A dotted ``import a.b`` binds ``a``; ``from __future__`` imports are
    directives, not names.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\nimport os.path\nimport sys\n"
        "from json import dumps, loads as load\n"
        "def f(x: int) -> None:\n    return sys.argv, load\n"
    )
    assert unused_imports(source) == ["dumps", "os"]


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def unread_private_names(sources: list[str]) -> list[str]:
    """Private (``_x``, not dunder) names that the top level of one of
    ``sources`` defines, by ``def``, ``class`` or assignment, and that no
    source reads, as a name or as an attribute."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(n for n in defined - read if n.startswith("_") and not n.startswith("__"))


def test_the_check_finds_an_unread_private_name():
    sources = [
        "__all__ = []\n_A, _B = 1, 2\nclass _Unused: pass\ndef _helper(): return _A\n",
        "from a import _helper\nimport a\nx = a._B\ndef f(): return _helper()\n",
    ]
    assert unread_private_names(sources) == ["_Unused"]
    # a helper that only a caller outside the sources reads is unread
    assert unread_private_names(sources[:1]) == ["_B", "_Unused", "_helper"]


def test_package_reads_every_private_name():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []


def foreign_imports(source: str) -> list[str]:
    """Top-level modules that absolute imports anywhere in ``source`` name
    and that are neither in the standard library nor numpy; relative and
    ``__future__`` imports are exempt."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module != "__future__":
            names.add(node.module.split(".")[0])
    return sorted(names - set(sys.stdlib_module_names) - {"numpy"})


def test_the_check_finds_a_foreign_import():
    source = (
        "from __future__ import annotations\nimport os.path, numpy.linalg\n"
        "from . import grids\nfrom .flow import _bilinear\nfrom scipy import sparse\n"
        "def f():\n    import hashlib\n    import PIL.Image\n"
    )
    assert foreign_imports(source) == ["PIL", "scipy"]


def test_package_depends_only_on_numpy():
    foreign = {str(p.relative_to(PACKAGE)): foreign_imports(p.read_text()) for p in PACKAGE.rglob("*.py")}
    assert {module: names for module, names in foreign.items() if names} == {}
