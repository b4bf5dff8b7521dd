"""Source hygiene of the package, read with ``ast`` alone.

* No module of ``src/endflow`` imports a name it never reads.  The
  package ``__init__`` is left out: its imports are the re-exports.
* No module-level private function (``_name``) goes unreferenced: some
  statement of some package module other than its own definition must
  name it, bare or as an attribute.
* No method of a module-level private class (``_Name``) goes
  unreferenced, dunders aside: the class body is read statement by
  statement, so a method named only by another method of its class
  counts, and one named only by itself does not.
* A failing move's index is set on its error in one place:
  ``transport._walk``, the one walk of a word, is the only statement
  that assigns a ``move_index`` attribute.
* A word's replay is built in one place: ``transport._walk`` is the
  only code that calls ``_Runner`` with a unit and the only statement
  that writes a word's ``_end``, so no other module builds a word's
  runner or stores its end.
* Only the section schedules on Fractions: every call of ``_Runner``
  without a unit is in ``section.py``.
* ``serialize._need`` labels stay lazy: no call passes it a label that
  the call itself formats (an f-string, ``%`` or ``str.format``), which
  would be built for every key read, error or not; a move's index goes
  in as its own argument.

The seven scanners are checked on planted source first, so a scanner
that stopped finding anything would fail rather than pass everything.
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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _statements(sources):
    """``(module, owner, statement, names)`` for every top-level statement
    of every module; a private class is split into its header (owner
    None) and its body statements (owner the class name)."""
    out = []
    for mod, src in sources.items():
        for stmt in ast.parse(src).body:
            if not (isinstance(stmt, ast.ClassDef) and _private(stmt.name)):
                out.append((mod, None, stmt, _referenced(stmt)))
                continue
            header = set()
            for node in stmt.bases + stmt.keywords + stmt.decorator_list:
                header |= _referenced(node)
            out.append((mod, None, stmt, header))
            out += [(mod, stmt.name, s, _referenced(s)) for s in stmt.body]
    return out


def _unreferenced_defs(sources, wanted):
    """``(module, owner, name)`` of every function definition that
    ``wanted(owner, name)`` selects and no other statement names."""
    statements = _statements(sources)
    out = []
    for mod, owner, stmt, _ in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = stmt.name
        if not wanted(owner, name):
            continue
        if not any(
            other is not stmt and name in names
            for _, _, other, names in statements
        ):
            out.append((mod, owner, name))
    return out


def unreferenced_private_functions(sources):
    """``(module, name)`` of every module-level private function that no
    statement of any module names, its own definition aside."""
    return [
        (mod, name)
        for mod, _, name in _unreferenced_defs(
            sources, lambda owner, name: owner is None and _private(name)
        )
    ]


def unreferenced_private_class_methods(sources):
    """``(module, "Class.method")`` of every non-dunder method of a
    module-level private class that no statement of any module names,
    its own definition aside."""
    def wanted(owner, name):
        dunder = name.startswith("__") and name.endswith("__")
        return owner is not None and not dunder

    return [
        (mod, f"{owner}.{name}")
        for mod, owner, name in _unreferenced_defs(sources, wanted)
    ]


def _sets_move_index(node) -> bool:
    """The statement assigns a ``move_index`` attribute, directly or
    through ``setattr``."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Call):
        return (
            isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "move_index"
        )
    else:
        return False
    return any(
        isinstance(n, ast.Attribute) and n.attr == "move_index"
        for target in targets
        for n in ast.walk(target)
    )


def move_index_setters(sources):
    """``(module, top-level name, line)`` of every statement that assigns
    a ``move_index`` attribute, in source order."""
    out = []
    for mod, src in sources.items():
        for stmt in ast.parse(src).body:
            owner = getattr(stmt, "name", None)
            out += [
                (mod, owner, node.lineno)
                for node in ast.walk(stmt)
                if _sets_move_index(node)
            ]
    return sorted(out, key=lambda found: (found[0], found[2]))


def _is_named(func, name) -> bool:
    """The call's function is ``name``, bare or as an attribute."""
    return getattr(func, "id", None) == name or getattr(
        func, "attr", None
    ) == name


def _passes_a_unit(call) -> bool:
    """The ``_Runner`` call passes a unit, by position or keyword."""
    return len(call.args) > 1 or any(k.arg == "unit" for k in call.keywords)


def _replay_build(node):
    """``"unit runner"`` if the node calls ``_Runner`` with a unit,
    ``"end write"`` if it writes an ``_end`` (an attribute, a
    ``vars(x)`` or ``__dict__`` item, or through ``setattr`` or
    ``object.__setattr__``), else None."""
    if isinstance(node, ast.Call):
        func = node.func
        if _is_named(func, "_Runner") and _passes_a_unit(node):
            return "unit runner"
        if (
            (_is_named(func, "setattr") or _is_named(func, "__setattr__"))
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "_end"
        ):
            return "end write"
        return None
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return None
    for target in targets:
        for n in ast.walk(target):
            if isinstance(n, ast.Attribute) and n.attr == "_end":
                return "end write"
            if (
                isinstance(n, ast.Subscript)
                and isinstance(n.slice, ast.Constant)
                and n.slice.value == "_end"
            ):
                return "end write"
    return None


def replay_builders(sources):
    """``(module, top-level name, line, kind)`` of every call of
    ``_Runner`` with a unit and every write of an ``_end``, in source
    order."""
    out = []
    for mod, src in sources.items():
        for stmt in ast.parse(src).body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                kind = _replay_build(node)
                if kind:
                    out.append((mod, owner, node.lineno, kind))
    return sorted(out, key=lambda found: (found[0], found[2]))


def fraction_runners(sources):
    """``(module, top-level name, line)`` of every call of ``_Runner``
    without a unit, in source order."""
    out = []
    for mod, src in sources.items():
        for stmt in ast.parse(src).body:
            owner = getattr(stmt, "name", None)
            out += [
                (mod, owner, node.lineno)
                for node in ast.walk(stmt)
                if isinstance(node, ast.Call)
                and _is_named(node.func, "_Runner")
                and not _passes_a_unit(node)
            ]
    return sorted(out, key=lambda found: (found[0], found[2]))


def _formats_a_string(node) -> bool:
    """The expression builds a string by formatting: an f-string, ``%``
    on a string literal or a ``.format`` call."""
    return any(
        isinstance(n, ast.JoinedStr)
        or isinstance(n, ast.BinOp)
        and isinstance(n.op, ast.Mod)
        and isinstance(n.left, ast.Constant)
        and isinstance(n.left.value, str)
        or isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "format"
        for n in ast.walk(node)
    )


def eager_need_labels(sources):
    """``(module, line)`` of every call to ``_need``, bare or as an
    attribute, whose label (the fourth argument, or ``where=``) the call
    formats."""
    out = []
    for mod, src in sources.items():
        for node in ast.walk(ast.parse(src)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None
            )
            if name != "_need":
                continue
            labels = node.args[3:4] + [
                k.value for k in node.keywords if k.arg == "where"
            ]
            if any(_formats_a_string(label) for label in labels):
                out.append((mod, node.lineno))
    return sorted(out)


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


def test_method_scanner_finds_planted_faults():
    src = (
        "class _Private(Base):\n"
        "    __slots__ = ()\n"
        "    def __init__(self):\n"
        "        self._helper()\n"
        "    def _helper(self):\n"
        "        pass\n"
        "    def called_outside(self):\n"
        "        pass\n"
        "    def dead(self):\n"
        "        return self.dead()\n"
        "    def _dead_too(self):\n"
        "        pass\n"
        "class Public:\n"
        "    def unnamed(self):\n"
        "        pass\n"
        "def _make():\n"
        "    return _Private()\n"
    )
    other = "from .a import _make\n_make().called_outside()\n"
    sources = {"a.py": src, "b.py": other}
    assert unreferenced_private_class_methods(sources) == [
        ("a.py", "_Private.dead"),
        ("a.py", "_Private._dead_too"),
    ]
    # a private class's header and body still name what they use
    assert unreferenced_private_functions(sources) == []
    header = "class _C(_base()):\n    pass\ndef _base():\n    pass\n"
    assert unreferenced_private_functions({"a.py": header}) == []


def test_move_index_scanner_finds_planted_setters():
    src = (
        "def walk(e, i):\n"
        "    e.move_index = i\n"
        "    read = e.move_index\n"
        "    move_index = read\n"
        "    return move_index\n"
        "class Runner:\n"
        "    def step(self, e):\n"
        "        setattr(e, 'move_index', 0)\n"
        "        e.move_index += 1\n"
        "        (e.move_index, x) = (2, 3)\n"
        "        setattr(e, 'other', 0)\n"
        "def typed(e):\n"
        "    e.move_index: int = 4\n"
    )
    assert move_index_setters({"a.py": src}) == [
        ("a.py", "walk", 2),
        ("a.py", "Runner", 8),
        ("a.py", "Runner", 9),
        ("a.py", "Runner", 10),
        ("a.py", "typed", 13),
    ]


def test_replay_scanner_finds_planted_builders():
    src = (
        "def walk(word, mu, u):\n"
        "    r = _Runner(mu, u)\n"
        "    transport._Runner(mu, unit=u)\n"
        "    _Runner(mu)\n"
        "    vars(word)['_end'] = r\n"
        "    end = vars(word)['_end']\n"
        "    _end = end\n"
        "class Keeper:\n"
        "    def keep(self, word, r):\n"
        "        word._end = r\n"
        "        word.__dict__['_end'] = r\n"
        "        setattr(word, '_end', r)\n"
        "        object.__setattr__(word, '_end', r)\n"
        "        setattr(word, 'end', r)\n"
        "        (word._end, x) = (r, 1)\n"
        "def typed(word, r):\n"
        "    word._end: object = r\n"
    )
    assert replay_builders({"a.py": src}) == [
        ("a.py", "walk", 2, "unit runner"),
        ("a.py", "walk", 3, "unit runner"),
        ("a.py", "walk", 5, "end write"),
        ("a.py", "Keeper", 10, "end write"),
        ("a.py", "Keeper", 11, "end write"),
        ("a.py", "Keeper", 12, "end write"),
        ("a.py", "Keeper", 13, "end write"),
        ("a.py", "Keeper", 15, "end write"),
        ("a.py", "typed", 17, "end write"),
    ]


def test_a_words_replay_is_built_in_one_place():
    found = replay_builders(_package_sources())
    assert [(mod, owner, kind) for mod, owner, _, kind in found] == [
        ("transport.py", "_walk", "unit runner"),
        ("transport.py", "_walk", "end write"),
    ], found


def test_fraction_runner_scanner_finds_planted_runners():
    src = (
        "def walk(mu, u):\n"
        "    r = _Runner(mu)\n"
        "    _Runner(mu, u)\n"
        "    transport._Runner(mu, unit=u)\n"
        "    return transport._Runner(mu)\n"
        "class Keeper:\n"
        "    def keep(self, mu):\n"
        "        self.r = _Runner(mu)\n"
        "        Runner(mu)\n"
    )
    assert fraction_runners({"a.py": src}) == [
        ("a.py", "walk", 2),
        ("a.py", "walk", 5),
        ("a.py", "Keeper", 8),
    ]


def test_only_the_section_builds_fraction_runners():
    found = fraction_runners(_package_sources())
    assert found and {mod for mod, _, _ in found} == {"section.py"}, found


def test_need_label_scanner_finds_planted_formatting():
    src = (
        "def load(doc, i):\n"
        "    _need(doc, 'a', str, 'word move', i)\n"
        "    _need(doc, 'b', str, f'word move {i}')\n"
        "    serialize._need(doc, 'c', str, where=f'move {i}')\n"
        "    _need(doc, 'd', str, 'move %d' % i)\n"
        "    _need(doc, 'e', str, 'move {}'.format(i))\n"
        "    _need(doc, 'f', str, label)\n"
        "    other(doc, 'g', str, f'move {i}')\n"
        "    _need(doc, f'{i}', str, 'tree')\n"
    )
    assert eager_need_labels({"a.py": src}) == [
        ("a.py", 3),
        ("a.py", 4),
        ("a.py", 5),
        ("a.py", 6),
    ]


def test_need_labels_are_formatted_only_on_error():
    found = eager_need_labels(_package_sources())
    assert not found, found


def test_move_index_is_set_in_one_place():
    found = move_index_setters(_package_sources())
    assert [(mod, owner) for mod, owner, _ in found] == [
        ("transport.py", "_walk")
    ], found


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


def test_no_unreferenced_private_class_methods():
    found = unreferenced_private_class_methods(_package_sources())
    assert not found, found
