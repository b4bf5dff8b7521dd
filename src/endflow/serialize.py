"""JSON schemas for trees, states, charges, words, morphisms and stars.

Rationals are strings "p/q" (reduced; plain "p" when integral) and "inf"
is the only infinity token.  Loaders raise SchemaError on malformed
documents; semantic validation stays with the domain types.

This module alone decides which keys a document may hold, and the
loaders drop no key unread.  A JSON object that repeats a key is refused
as it is read (:func:`_unique_keys`), and each loader refuses a key no
reader takes through :func:`_check_keys`, after its other checks.  A
tree holds its ``root`` and ``nodes`` (and, being a star document, its
``star`` header); a measure holds its ``blocks`` and ``tails`` alone,
and a morphism its ``source``, ``target`` and ``map``.  A tree node
entry needs children, a weight or a leaf tag, and holds no other key: an
End leaf takes no weight, and a leaf tag holds its ``kind`` and, for an
End leaf, its ``tail``.  A canonical entry (a block's ``id``,
``children``, ``weight`` and a null ``leaf``, or an End leaf's ``id``,
``children`` and ``leaf`` tag of ``kind`` "end" and its ``tail``, every
id and rational a string) is accepted after one test; any other entry
goes through every check in order, and the first it fails names its
fault.  A word holds its ``moves`` alone, each move exactly one of
``balloon`` (an ``edge`` and an ``amount``) and ``rearrange`` (a
``support`` and its ``masses``); a charge is a flat map of End leaves or
a ``values`` mapping alone.  A star document holds its tree's ``root``
and ``nodes`` and a ``star`` header of ``rays`` and ``depth``, and must
be the star's canonical tree: a relabeled tree, swapped rays or cells,
an unfitting header, a shared end, an end with a child, a stray node or
a Closed leaf is a SchemaError naming the first node where it differs.
"""

from __future__ import annotations

from functools import partial

from .charge import EndCharge
from .errors import NonPositiveMassError
from .extmath import frac_str, mass_str, parse_frac, parse_mass
from .measure import MeasureState
from .morphism import TreeMorphism
from .raystar import RayStar
from .transport import BalloonMove, MoveWord, Rearrange
from .tree import BalloonTree


class SchemaError(ValueError):
    """Document does not match the expected JSON shape."""


def _need(obj, key, kind, where, move=None):
    """``obj[key]``, checked to be a ``kind``.  An error names ``where``,
    followed by ``move`` for a word's move; the label is formatted only
    when there is an error to raise."""
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{_label(where, move)}: missing key {key!r}")
    val = obj[key]
    # JSON true and false load as bool, a subclass of int, yet are no counts
    if kind is not None and (
        not isinstance(val, kind) or isinstance(val, bool) and kind is int
    ):
        raise SchemaError(
            f"{_label(where, move)}: key {key!r} has the wrong type"
        )
    return val


def _label(where, name):
    return where if name is None else f"{where} {name!r}"


def _check_keys(obj, allowed, where, name=None, note=""):
    """Refuse the first key of ``obj`` outside ``allowed``.  The error
    names ``where``, followed by ``name`` (a node id or a move index) and
    ``note``.  Each loader calls this after all its other checks, so a
    document with another fault is reported for that fault."""
    if obj.keys() <= allowed:
        return
    key = next(k for k in obj if k not in allowed)
    raise SchemaError(f"{_label(where, name)}: unexpected key {key!r}{note}")


def _unique_keys(pairs):
    """A JSON object's dict, for ``json.load``'s ``object_pairs_hook``: a
    key the object repeats is refused rather than read as its last
    value."""
    out = dict(pairs)
    if len(out) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"repeated JSON key {key!r}")
            seen.add(key)
    return out


def _rationals():
    """``(frac, mass)``, the parsers of one document: each distinct string
    is parsed once.

    Only successes are kept, so a bad string still raises where it first
    appears; a value that is no string goes straight to
    :func:`parse_frac`, which refuses it with a ``ValueError``."""
    seen = {}

    def frac(s):
        x = seen.get(s) if isinstance(s, str) else None
        if x is None:
            x = seen[s] = parse_frac(s)
        return x

    return frac, partial(parse_mass, frac=frac)


# -- trees --------------------------------------------------------------------


def tree_to_json(t: BalloonTree) -> dict:
    nodes = []
    for v in t.nodes:
        entry = {"id": v, "children": list(t.child_map(v))}
        if t.is_end_leaf(v):
            entry["leaf"] = {"kind": "end", "tail": mass_str(t.tails[v])}
        else:
            entry["weight"] = frac_str(t.weights[v])
            entry["leaf"] = {"kind": "closed"} if v in t.closed else None
        nodes.append(entry)
    return {"root": t.root, "nodes": nodes}


# the keys of a tree document (a star document is one too), those a node
# entry may hold, by leaf kind, and those of its leaf tag
_TREE_KEYS = frozenset({"root", "nodes", "star"})
_BLOCK_KEYS = frozenset({"id", "children", "weight", "leaf"})
_ENTRY_KEYS = {
    None: _BLOCK_KEYS, "closed": _BLOCK_KEYS, "end": _BLOCK_KEYS - {"weight"}
}
_TAG_KEYS = {None: {"kind"}, "closed": {"kind"}, "end": {"kind", "tail"}}


def tree_from_json(doc: dict) -> BalloonTree:
    root = _need(doc, "root", str, "tree")
    nodes = _need(doc, "nodes", list, "tree")
    frac, mass = _rationals()
    children = {}
    weights = {}
    tails = {}
    closed = set()
    for entry in nodes:
        # a canonical block or End entry, with its ids and rationals str, is
        # accepted after one test; any other entry is read by _read_node,
        # whose checks name its fault
        if (
            type(entry) is dict
            and type(vid := entry.get("id")) is str
            and vid not in children
            and type(kids := entry.get("children")) is list
            and all(type(c) is str for c in kids)
            and (
                (keys := entry.keys()) == _BLOCK_KEYS
                and entry["leaf"] is None
                and type(text := entry["weight"]) is str
                or keys == _ENTRY_KEYS["end"]
                and type(leaf := entry["leaf"]) is dict
                and leaf.keys() == _TAG_KEYS["end"]
                and leaf["kind"] == "end"
                and type(text := leaf["tail"]) is str
            )
        ):
            children[vid] = tuple(kids)
            try:
                if "weight" in entry:
                    weights[vid] = frac(text)
                else:
                    tails[vid] = mass(text)
            except ValueError as e:
                raise SchemaError(f"tree node {vid!r}: {e}") from None
        else:
            _read_node(entry, frac, mass, (children, weights, tails, closed))
    _check_keys(doc, _TREE_KEYS, "tree")
    return BalloonTree(
        root=root,
        children=children,
        weights=weights,
        tails=tails,
        closed=frozenset(closed),
    )


def _read_node(entry, frac, mass, parts) -> None:
    """Read a tree node entry into ``parts``, the children, weights, tails
    and Closed leaves read so far, with every check that names a fault in
    a node entry, in order."""
    children, weights, tails, closed = parts
    vid = _need(entry, "id", str, "tree node")
    if vid in children:
        raise SchemaError(f"tree node {vid!r}: repeated id")
    kids = entry.get("children", [])
    if not isinstance(kids, list) or not all(isinstance(c, str) for c in kids):
        raise SchemaError(f"tree node {vid!r}: bad children list")
    children[vid] = tuple(kids)
    leaf = entry.get("leaf")
    if leaf is not None and not isinstance(leaf, dict):
        raise SchemaError(f"tree node {vid!r}: bad leaf tag")
    kind = leaf.get("kind") if leaf else None
    if kind == "end":
        try:
            tails[vid] = mass(_need(leaf, "tail", str, "end leaf"))
        except ValueError as e:
            raise SchemaError(f"tree node {vid!r}: {e}") from None
    elif kind == "closed" or kind is None:
        if kind == "closed":
            closed.add(vid)
        if "weight" in entry:
            try:
                weights[vid] = frac(entry["weight"])
            except ValueError as e:
                raise SchemaError(f"tree node {vid!r}: {e}") from None
        elif kind is None and not kids:
            # the tree would keep nothing of it, so no check could see it
            raise SchemaError(
                f"tree node {vid!r}: no children, weight or leaf tag"
            )
    else:
        raise SchemaError(f"tree node {vid!r}: unknown leaf kind {kind!r}")
    # a key no reader takes (a weight on an End leaf among them) would
    # be dropped unread, so it is refused
    note = " on an End leaf" if kind == "end" else ""
    _check_keys(entry, _ENTRY_KEYS[kind], "tree node", vid, note)
    if leaf:
        _check_keys(
            leaf, _TAG_KEYS[kind], "tree node", vid, " in its leaf tag"
        )


# -- measure states -----------------------------------------------------------


def state_to_json(mu: MeasureState) -> dict:
    return {
        "blocks": {v: frac_str(m) for v, m in sorted(mu.blocks.items())},
        "tails": {v: mass_str(m) for v, m in sorted(mu.tails.items())},
    }


# the keys of a measure document
_MEASURE_KEYS = frozenset({"blocks", "tails"})


def state_from_json(tree: BalloonTree, doc: dict) -> MeasureState:
    blocks = _need(doc, "blocks", dict, "measure")
    tails = _need(doc, "tails", dict, "measure")
    frac, mass = _rationals()
    try:
        mu = MeasureState(
            tree,
            {v: frac(m) for v, m in blocks.items()},
            {v: mass(m) for v, m in tails.items()},
        )
    except ValueError as e:
        raise SchemaError(f"measure: {e}") from None
    _check_keys(doc, _MEASURE_KEYS, "measure")
    return mu


# -- charges ------------------------------------------------------------------


def charge_to_json(c: EndCharge) -> dict:
    return {"values": {v: frac_str(x) for v, x in sorted(c.values.items())}}


# the keys of a wrapped charge document
_CHARGE_KEYS = frozenset({"values"})


def charge_from_json(tree: BalloonTree, doc: dict) -> EndCharge:
    if not isinstance(doc, dict):
        raise SchemaError("charge: expected an object")
    # the wrapped form holds a values mapping; in the flat form, an End
    # leaf may be called "values"
    values = doc.get("values")
    if not isinstance(values, dict):
        values = doc
    frac, _ = _rationals()
    try:
        charge = EndCharge(tree, {v: frac(x) for v, x in values.items()})
    except ValueError as e:
        raise SchemaError(f"charge: {e}") from None
    if values is not doc:
        _check_keys(doc, _CHARGE_KEYS, "charge")
    return charge


# -- words --------------------------------------------------------------------


def word_to_json(w: MoveWord) -> dict:
    moves = []
    for mv in w.moves:
        if isinstance(mv, BalloonMove):
            moves.append(
                {
                    "balloon": {
                        "edge": list(mv.edge),
                        "amount": frac_str(mv.amount),
                    }
                }
            )
        else:
            moves.append(
                {
                    "rearrange": {
                        "support": sorted(mv.support),
                        "masses": {
                            v: frac_str(m) for v, m in sorted(mv.masses.items())
                        },
                    }
                }
            )
    return {"moves": moves}


# the keys of a word document and of each move kind's body
_WORD_KEYS = frozenset({"moves"})
_BODY_KEYS = {
    "balloon": frozenset({"edge", "amount"}),
    "rearrange": frozenset({"support", "masses"}),
}


def word_from_json(tree: BalloonTree, base: MeasureState, doc: dict) -> MoveWord:
    frac, _ = _rationals()
    balloon_keys = _BODY_KEYS["balloon"]
    moves = []
    for i, entry in enumerate(_need(doc, "moves", list, "word")):
        # a well-formed balloon entry is accepted after one test; any other
        # entry is read by _read_move, whose checks name its fault
        body = (
            entry.get("balloon")
            if type(entry) is dict and len(entry) == 1
            else None
        )
        try:
            if (
                type(body) is dict
                and body.keys() == balloon_keys
                and type(edge := body["edge"]) is list
                and len(edge) == 2
                and type(edge[0]) is str
                and type(edge[1]) is str
                and type(amount := body["amount"]) is str
            ):
                moves.append(BalloonMove((edge[0], edge[1]), frac(amount)))
            else:
                moves.append(_read_move(frac, entry, i))
        except SchemaError:
            raise
        except ValueError as e:
            # a rational that does not parse
            raise SchemaError(f"word move {i}: {e}") from None
    _check_keys(doc, _WORD_KEYS, "word")
    return MoveWord(tree, base, tuple(moves))


def _read_move(frac, entry, i: int):
    """Move ``i`` of a word document, with every check that names a fault
    in a move entry, in order; a rational that does not parse is left to
    raise its ``ValueError``."""
    if not isinstance(entry, dict):
        raise SchemaError(f"word move {i}: not an object")
    if "balloon" in entry:
        kind, body = "balloon", entry["balloon"]
        edge = _need(body, "edge", list, "word move", i)
        if len(edge) != 2 or not (
            isinstance(edge[0], str) and isinstance(edge[1], str)
        ):
            raise SchemaError(f"word move {i}: edge needs two node ids")
        amount = _need(body, "amount", str, "word move", i)
        move = BalloonMove((edge[0], edge[1]), frac(amount))
    elif "rearrange" in entry:
        kind, body = "rearrange", entry["rearrange"]
        support = _need(body, "support", list, "word move", i)
        if not all(isinstance(v, str) for v in support):
            raise SchemaError(f"word move {i}: support needs node ids")
        masses = _need(body, "masses", dict, "word move", i)
        move = Rearrange(
            frozenset(support), {v: frac(m) for v, m in masses.items()}
        )
    else:
        raise SchemaError(f"word move {i}: unknown move kind")
    # a move is one kind key and its body, which holds that kind's keys
    _check_keys(entry, {kind}, "word move", i, f" in a {kind} move")
    _check_keys(body, _BODY_KEYS[kind], "word move", i, f" in its {kind}")
    return move


# -- morphisms ----------------------------------------------------------------


def morphism_to_json(pi: TreeMorphism) -> dict:
    return {
        "source": tree_to_json(pi.source),
        "target": tree_to_json(pi.target),
        "map": dict(sorted(pi.node_map.items())),
    }


# the keys of a morphism document
_MORPHISM_KEYS = frozenset({"source", "target", "map"})


def morphism_from_json(doc: dict) -> TreeMorphism:
    source = tree_from_json(_need(doc, "source", dict, "morphism"))
    target = tree_from_json(_need(doc, "target", dict, "morphism"))
    node_map = _need(doc, "map", dict, "morphism")
    if not all(
        isinstance(k, str) and isinstance(v, str) for k, v in node_map.items()
    ):
        raise SchemaError("morphism: map must be id to id")
    pi = TreeMorphism(source, target, dict(node_map))
    _check_keys(doc, _MORPHISM_KEYS, "morphism")
    return pi


# -- ray stars ----------------------------------------------------------------


def star_to_json(star: RayStar) -> dict:
    doc = tree_to_json(star.to_tree())
    doc["star"] = {"rays": star.ray_count, "depth": star.depth}
    return doc


# the keys of a star header; a star document holds a tree document's
_HEADER_KEYS = frozenset({"rays", "depth"})


def star_from_json(doc: dict) -> RayStar:
    header = _need(doc, "star", dict, "star")
    rays = _need(header, "rays", int, "star header")
    depth = _need(header, "depth", int, "star header")
    # the tree loader is handed the tree's keys alone, so a stray key is
    # refused below as the star's
    tree = tree_from_json({k: doc[k] for k in ("root", "nodes") if k in doc})
    try:
        star = RayStar.from_tree(tree, rays, depth)
    except NonPositiveMassError:
        # a well-formed star with a bad mass: left to the caller to report
        raise
    except ValueError as e:
        raise SchemaError(f"star: {e}") from None
    _check_keys(header, _HEADER_KEYS, "star header")
    _check_keys(doc, _TREE_KEYS, "star")
    return star
