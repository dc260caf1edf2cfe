"""Every module of the package uses each name it imports.

``__init__.py`` is exempt: it imports names to export them.
"""

import ast
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
