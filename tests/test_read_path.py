"""The read path does each piece of work once.

A star document yields one ``BalloonTree``, which must be the star's
canonical tree and which the star keeps as its ``to_tree()``; any other
tree is refused, naming where it differs.  Each loader parses every
distinct rational string of its document once; and a bad value still
fails where it first appears, with the same text.
"""

import json
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from endflow import serialize
from endflow.extmath import INF, parse_frac
from endflow.gen import random_preserving_word, random_star
from endflow.measure import base_state
from endflow.raystar import RayStar
from endflow.serialize import (
    SchemaError,
    charge_from_json,
    star_from_json,
    star_to_json,
    tree_from_json,
    tree_to_json,
    word_from_json,
    word_to_json,
)
from endflow.tree import BalloonTree


def _through_text(doc):
    return json.loads(json.dumps(doc))


# distinct masses, so a tree that links them otherwise reads otherwise
STAR = RayStar(
    Fraction(2),
    tuple(tuple(Fraction(3 * i + k + 1) for k in range(3)) for i in range(3)),
    (INF, Fraction(3), INF),
)


def _read_back(doc):
    """The tree a document holds, and the star read from it."""
    tree = tree_from_json(doc)
    return tree, RayStar.from_tree(tree, STAR.ray_count, STAR.depth)


def test_a_star_document_builds_one_tree(monkeypatch):
    doc = _through_text(star_to_json(STAR))
    built = []
    post_init = BalloonTree.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(BalloonTree, "__post_init__", counting)
    star = star_from_json(doc)
    tree = star.to_tree()
    base_state(tree)
    assert len(built) == 1 and built[0] is tree


def test_a_canonical_tree_is_the_stars_own():
    tree, star = _read_back(_through_text(tree_to_json(STAR.to_tree())))
    assert star.to_tree() is tree


def _node(doc, vid):
    return next(n for n in doc["nodes"] if n["id"] == vid)


def _relabeled(doc):
    names = {n["id"]: f"n{k}" for k, n in enumerate(doc["nodes"])}
    doc["root"] = names[doc["root"]]
    for n in doc["nodes"]:
        n["id"] = names[n["id"]]
        n["children"] = [names[c] for c in n["children"]]


def _reordered(doc):
    doc["nodes"].reverse()


def _rays_swapped(doc):
    _node(doc, "c")["children"].reverse()


def _cells_swapped(doc):
    # c -> r0c1 -> r0c0 -> r0c2: every id and the end are still there
    _node(doc, "c")["children"][0] = "r0c1"
    _node(doc, "r0c1")["children"] = ["r0c0"]
    _node(doc, "r0c0")["children"] = ["r0c2"]


def _end_shared(doc):
    # ray 0 runs into ray 1's end, and r0e hangs unreached
    _node(doc, "r0c2")["children"] = ["r1e"]


def _end_with_child(doc):
    _node(doc, "r0e")["children"] = ["z"]


def _stray_end_leaf(doc):
    doc["nodes"].append(
        {"id": "z", "children": [], "leaf": {"kind": "end", "tail": "inf"}}
    )


def _stray_block(doc):
    doc["nodes"].append({"id": "z", "children": [], "weight": "1"})


def _stray_closed_leaf(doc):
    doc["nodes"].append({"id": "z", "children": [], "leaf": {"kind": "closed"}})


def _rerooted(doc):
    doc["root"] = "r0c0"


def _closed_cell(doc):
    _node(doc, "r0c1")["leaf"] = {"kind": "closed"}


# the SchemaError text each edit of the canonical document gives; None for
# an edit that leaves the tree equal, which is kept
REFUSALS = {
    _relabeled: "star: block 'r0c0' has no weight",
    _reordered: None,
    _rays_swapped: (
        "star: node 'c' has children ('r2c0', 'r1c0', 'r0c0'); "
        "the canonical tree has ('r0c0', 'r1c0', 'r2c0')"
    ),
    _cells_swapped: (
        "star: node 'c' has children ('r0c1', 'r1c0', 'r2c0'); "
        "the canonical tree has ('r0c0', 'r1c0', 'r2c0')"
    ),
    _end_shared: (
        "star: node 'r0c2' has children ('r1e',); "
        "the canonical tree has ('r0e',)"
    ),
    _end_with_child: (
        "star: node 'r0e' has children ('z',); the canonical tree has none"
    ),
    _stray_end_leaf: "star: node 'z' has tail inf; the canonical tree has none",
    _stray_block: "star: node 'z' has weight 1; the canonical tree has none",
    _stray_closed_leaf: (
        "star: node 'z' is a Closed leaf; the canonical tree has none"
    ),
    _rerooted: "star: the root is 'r0c0', not 'c'",
    _closed_cell: (
        "star: node 'r0c1' is a Closed leaf; the canonical tree has none"
    ),
}


@pytest.mark.parametrize("edit", REFUSALS)
def test_any_other_tree_still_yields_the_canonical_tree(edit):
    """Whatever the document, a star read from it has the canonical tree:
    an edit that leaves the tree equal is kept, as the star's own tree,
    and any other is refused with a SchemaError naming where it differs."""
    doc = _through_text(star_to_json(STAR))
    edit(doc)
    if REFUSALS[edit] is not None:
        with pytest.raises(SchemaError) as err:
            star_from_json(doc)
        assert str(err.value) == REFUSALS[edit]
        return
    tree, star = _read_back(doc)
    assert star.to_tree() is tree
    assert tree == STAR.to_tree()
    assert (star.center_mass, star.cells, star.tails) == (
        STAR.center_mass,
        STAR.cells,
        STAR.tails,
    )


@pytest.mark.parametrize(
    "rays, depth, error",
    [
        (
            2,
            3,
            "star: node 'c' has children ('r0c0', 'r1c0', 'r2c0'); "
            "the canonical tree has ('r0c0', 'r1c0')",
        ),
        (4, 3, "star: block 'r3c0' has no weight"),
        (
            3,
            2,
            "star: node 'r0c1' has children ('r0c2',); "
            "the canonical tree has ('r0e',)",
        ),
        (3, 4, "star: block 'r0c3' has no weight"),
        # ray by ray: a huge header fails at the first id the tree lacks
        (10**12, 3, "star: block 'r3c0' has no weight"),
        (3, 0, "star: all rays need the same positive cell count"),
        (0, 3, "star: a ray star needs at least two rays"),
    ],
    ids=[
        "fewer_rays",
        "more_rays",
        "shallower",
        "deeper",
        "huge",
        "no_cells",
        "no_rays",
    ],
)
def test_a_header_that_does_not_fit_the_tree_is_refused(rays, depth, error):
    doc = _through_text(star_to_json(STAR))
    doc["star"] = {"rays": rays, "depth": depth}
    with pytest.raises(SchemaError) as err:
        star_from_json(doc)
    assert str(err.value) == error


def _star_rationals(doc):
    out = [n["weight"] for n in doc["nodes"] if "weight" in n]
    tails = [n["leaf"]["tail"] for n in doc["nodes"] if n["leaf"]]
    return out + [t for t in tails if t != "inf"]


def _word_rationals(doc):
    out = []
    for mv in doc["moves"]:
        if "balloon" in mv:
            out.append(mv["balloon"]["amount"])
        else:
            out += mv["rearrange"]["masses"].values()
    return out


def test_one_request_parses_each_distinct_rational_once(monkeypatch):
    # a star with finite tails and a word with shuffles, read as the
    # oracle reads them: the star's document, then the word's
    star = random_star(Random(11), max_rays=3, max_depth=6)
    tree = star.to_tree()
    word = random_preserving_word(
        Random(12), tree, base_state(tree), transfers=6, shuffles=3
    )
    star_doc = _through_text(star_to_json(star))
    word_doc = _through_text(word_to_json(word))
    parsed = []

    def counting(s):
        parsed.append(s)
        return parse_frac(s)

    monkeypatch.setattr(serialize, "parse_frac", counting)
    back = star_from_json(star_doc)
    tree = back.to_tree()
    assert word_from_json(tree, base_state(tree), word_doc).moves == word.moves

    star_strings = _star_rationals(star_doc)
    word_strings = _word_rationals(word_doc)
    assert Counter(parsed) == Counter(set(star_strings)) + Counter(
        set(word_strings)
    )
    # the documents do repeat themselves, so the memo has work to save
    assert len(parsed) < len(star_strings) + len(word_strings)


def test_a_repeated_bad_rational_is_named_at_its_first_move(star_tree):
    moves = [
        {"balloon": {"edge": ["r", "u"], "amount": "1/2"}} for _ in range(6)
    ]
    for i in (2, 5):
        moves[i]["balloon"]["amount"] = "0.5"
    with pytest.raises(SchemaError) as err:
        word_from_json(star_tree, base_state(star_tree), {"moves": moves})
    assert str(err.value) == (
        "word move 2: bad rational '0.5': expected 'p/q' or 'p'"
    )


@pytest.mark.parametrize("value", [[1], {"p": 1}, 1, None])
def test_a_rational_that_is_no_string_is_a_schema_error(star_tree, value):
    doc = tree_to_json(star_tree)
    doc["nodes"][0]["weight"] = value
    with pytest.raises(SchemaError, match="rational must be a string"):
        tree_from_json(doc)
    with pytest.raises(SchemaError, match="rational must be a string"):
        charge_from_json(star_tree, {"values": {"l1": value}})

