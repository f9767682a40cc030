"""Every module under ``src/kgt`` uses each name it imports, every
module-level private name is read somewhere in ``src/kgt``, and every public
function, class, method and module-level constant is read somewhere in
``src/kgt`` or ``kgtbench/``.
Every oracle and helper of the shared test modules is reached from a test.
No code under ``src/kgt`` but ``graph.write_atomic`` writes a file.

``__init__.py`` is exempt from the import check: its imports are the
package's re-exports.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "kgt"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SOURCE.glob("*.py"))
BENCH = sorted((ROOT / "kgtbench").glob("*.py"))
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


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


def module_bindings(source: str) -> list[tuple[int, str, bool]]:
    """(line, name, whether by assignment) of each name the module binds at its top level."""
    bound = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append((node.lineno, node.name, False))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [(node.lineno, n.id, True) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return bound


def private_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level ``_name`` (not a dunder) the module binds."""
    return [(line, name) for line, name, _ in module_bindings(source) if name.startswith("_") and not name.startswith("__")]


def public_constants(source: str) -> list[tuple[int, str]]:
    """(line, name) of each public name the module binds at its top level by assignment."""
    return [(line, name) for line, name, assigned in module_bindings(source) if assigned and not name.startswith("_")]


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


def public_definitions(source: str) -> list[tuple[int, str]]:
    """(line, dotted name) of each public function, class and method, nested classes included."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    found.append((node.lineno, prefix + node.name))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, prefix + node.name + ".")

    visit(ast.parse(source).body, "")
    return found


def names_referenced(source: str) -> set[str]:
    """Names read as a bare name or attribute, plus each part of every string that is a dotted name."""
    strings = {
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and DOTTED.fullmatch(node.value)
    }
    return names_read(source) | {part for value in strings for part in value.split(".")}


def test_public_finder_sees_definitions_and_references():
    source = "class A:\n    def f(self):\n        pass\n    def _g(self):\n        pass\ndef h():\n    return 'A.f'\n"
    assert public_definitions(source) == [(1, "A"), (2, "A.f"), (6, "h")]
    assert {"A", "f"} <= names_referenced(source) and "h" not in names_referenced(source)
    assert public_constants("A = 1\n_b = 2\nC: int = A\ndef d():\n    E = 4\nclass F:\n    G = 5\n") == [(1, "A"), (3, "C")]


def test_every_public_name_is_read():
    read = set().union(*(names_referenced(path.read_text(encoding="utf-8")) for path in PACKAGE + BENCH))
    unread = [
        (path.name, line, name)
        for path in PACKAGE
        for source in [path.read_text(encoding="utf-8")]
        for line, name in public_definitions(source) + public_constants(source)
        if name.rsplit(".", 1)[-1] not in read
    ]
    assert unread == []


def names_used(tree: ast.AST) -> set[str]:
    """The bare names a syntax tree loads, and the attributes it reads of the
    shared test modules: ``helpers.x`` counts, ``opt.x`` does not."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in ("helpers", "equivalence"):
            names.add(node.attr)
    return names


def unreached_definitions(shared: list[str], tests: list[str]) -> list[str]:
    """Top-level functions and classes of the ``shared`` sources that no ``tests``
    source reaches, by name, directly or through other shared top-level statements."""
    statements: dict[str, list] = {}
    defined = []
    for source in shared:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
                named = [node.name]
            else:
                targets = [t for t in getattr(node, "targets", [getattr(node, "target", None)]) if t is not None]
                named = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            for name in named:
                statements.setdefault(name, []).append(node)
    frontier, reached = set().union(*(names_used(ast.parse(source)) for source in tests)), set()
    while frontier:
        name = frontier.pop()
        if name in statements and name not in reached:
            reached.add(name)
            frontier |= set().union(*(names_used(node) for node in statements[name]))
    return [name for name in defined if name not in reached]


def test_every_shared_test_helper_is_reached():
    # an oracle that lost its last test must be deleted or used
    shared = "def a():\n    return b()\ndef b():\n    pass\ndef c():\n    pass\ndef step():\n    pass\nROWS = (a,)\n"
    # a method named like a helper reaches nothing; the module's attribute does
    assert unreached_definitions([shared], ["x = ROWS\nopt.step(0)\n"]) == ["c", "step"]
    assert unreached_definitions([shared], ["x = ROWS\nhelpers.step(0)\nequivalence.c()\n"]) == []
    tests = ROOT / "tests"
    sources = [(tests / name).read_text(encoding="utf-8") for name in ("helpers.py", "equivalence.py")]
    assert unreached_definitions(sources, [path.read_text(encoding="utf-8") for path in tests.glob("test_*.py")]) == []


def file_writes(source: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of each call that can write a file: ``open``
    with a mode that holds ``w``, ``a``, ``x`` or ``+`` or is not a literal,
    ``write_text``, ``write_bytes``, ``tofile`` and ``np.save*``."""
    found = []

    def writes(call: ast.Call) -> bool:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name == "open":  # open(file, mode) or path.open(mode)
            modes = [*call.args[isinstance(func, ast.Name):][:1], *(k.value for k in call.keywords if k.arg == "mode")]
            return any(not isinstance(m, ast.Constant) or not isinstance(m.value, str) or set(m.value) & set("wax+") for m in modes)
        numpy = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in ("np", "numpy")
        return name in ("write_text", "write_bytes", "tofile") or (numpy and name.startswith("save"))

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and writes(child):
                found.append((child.lineno, function))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(ast.parse(source), "")
    return found


def test_write_finder_sees_every_idiom():
    source = (
        "def f(p, m):\n"
        "    open(p)\n    open(p, 'rb')\n    p.open()\n    p.open(mode='r')\n    np.load(p)\n    obj.save(p)\n"
        "    open(p, 'w')\n    open(p, mode='ab')\n    open(p, m)\n    p.open('r+')\n    p.open(mode='x')\n"
        "    p.write_text('')\n    p.write_bytes(b'')\n    a.tofile(p)\n    np.save(p, a)\n    numpy.savez(p)\n"
        "class C:\n    def g(self, p):\n        return [open(p, 'wb') for _ in ()]\n"
        "open('x', 'w')\n"
    )
    assert file_writes(source) == [(line, "f") for line in range(8, 18)] + [(20, "g"), (21, "")]


def test_only_write_atomic_writes_files():
    found = [
        (path.name, line, function)
        for path in MODULES
        for line, function in file_writes(path.read_text(encoding="utf-8"))
        if (path.name, function) != ("graph.py", "write_atomic")
    ]
    assert found == []
