"""Source hygiene of the package, read with ``ast`` alone.

* No module of ``src/endflow`` imports a name it never reads.  The
  package ``__init__`` is left out: its imports are the re-exports.
* No module-level private function (``_name``) goes unreferenced: some
  statement of some package module other than its own definition must
  name it, bare or as an attribute.

The two scanners are checked on planted source first, so a scanner that
stopped finding anything would fail rather than pass everything.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "endflow"


def _read_names(node):
    """Bare names the node reads."""
    return {
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
    }


def _referenced(node):
    """Names the node reads, bare or as an attribute."""
    attrs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    return _read_names(node) | attrs


def unused_imports(source: str):
    """Names the module imports and never reads, in source order."""
    tree = ast.parse(source)
    used = _read_names(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in used:
                    out.append((node.lineno, name))
    return sorted(out)


def unreferenced_private_functions(sources):
    """``(module, name)`` of every module-level private function that no
    statement of any module names, its own definition aside."""
    statements = [
        (mod, stmt, _referenced(stmt))
        for mod, src in sources.items()
        for stmt in ast.parse(src).body
    ]
    out = []
    for mod, stmt, _ in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = stmt.name
        if not name.startswith("_") or name.startswith("__"):
            continue
        if not any(
            other is not stmt and name in names
            for _, other, names in statements
        ):
            out.append((mod, name))
    return out


def _package_sources():
    return {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def test_scanners_find_planted_faults():
    src = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import os.path\n"
        "from typing import List as L, Dict\n"
        "def _used() -> L[int]:\n"
        "    return sys.argv\n"
        "def _dead():\n"
        "    return _dead()\n"
        "def _called():\n"
        "    pass\n"
        "def _by_attribute():\n"
        "    pass\n"
        "def public():\n"
        "    Dict = {}\n"
        "    return _used(), _called\n"
    )
    other = "from . import a\nx = a._by_attribute\n"
    assert unused_imports(src) == [(2, "os"), (3, "os"), (4, "Dict")]
    assert unreferenced_private_functions({"a.py": src, "b.py": other}) == [
        ("a.py", "_dead")
    ]


def test_no_unused_imports():
    found = {
        mod: names
        for mod, src in _package_sources().items()
        if mod != "__init__.py"
        for names in [unused_imports(src)]
        if names
    }
    assert not found, found


def test_no_unreferenced_private_functions():
    found = unreferenced_private_functions(_package_sources())
    assert not found, found
