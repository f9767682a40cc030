"""Every module under ``src/kgt`` uses each name it imports, and every
module-level private name is read somewhere in ``src/kgt``.

``__init__.py`` is exempt from the import check: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "kgt"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SOURCE.glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that no expression of the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def private_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level ``_name`` (not a dunder) the module binds."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [(node.lineno, n.id) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [(line, name) for line, name in bound if name.startswith("_") and not name.startswith("__")]


def names_read(source: str) -> set[str]:
    """Every name the module loads, as a bare name or as an attribute."""
    tree = ast.parse(source)
    loads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return loads | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_finder_sees_unused_and_used_names():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom a.b import c, d as e\nx: c = np.e\n"
    assert unused_imports(source) == [(2, "os"), (4, "e")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_private_finder_sees_bound_and_read_names():
    source = "_a = 1\n__all__ = []\ndef _f():\n    return _a\nclass _C:\n    _inner = 2\n_b: int = 3\n"
    assert private_definitions(source) == [(1, "_a"), (3, "_f"), (5, "_C"), (7, "_b")]
    assert {"_a"} <= names_read(source) and not {"_f", "_C", "_b", "_inner"} & names_read(source)


def test_every_private_name_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    read = set().union(*(names_read(source) for source in sources.values()))
    unread = [(name, line, n) for name, source in sources.items() for line, n in private_definitions(source) if n not in read]
    assert unread == []
