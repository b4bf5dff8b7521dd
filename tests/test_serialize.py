import json
import re
from fractions import Fraction
from functools import partial
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from endflow.charge import EndCharge
from endflow.extmath import INF, parse_frac, parse_mass
from endflow.gen import (
    random_morphism,
    random_preserving_word,
    random_star,
    random_state,
    random_tree,
    random_valid_charge,
)
from endflow.measure import base_state
from endflow.serialize import (
    SchemaError,
    charge_from_json,
    charge_to_json,
    morphism_from_json,
    morphism_to_json,
    star_from_json,
    star_to_json,
    state_from_json,
    state_to_json,
    tree_from_json,
    tree_to_json,
    word_from_json,
    word_to_json,
)
from endflow.tree import BalloonTree


def test_rational_parsing():
    assert parse_frac("3/4") == Fraction(3, 4)
    assert parse_frac("-3") == Fraction(-3)
    assert parse_mass("inf") is INF
    assert parse_mass("7/2") == Fraction(7, 2)
    with pytest.raises(ValueError):
        parse_frac("inf")
    with pytest.raises(ValueError):
        parse_frac("1.5e3")
    with pytest.raises(ValueError):
        parse_frac("1/0")


_TWO_PASS_RATIONAL = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def _parse_frac_two_pass(s):
    """parse_frac as it was before it parsed once: a match, then a second
    parse of the same text by ``Fraction(str)``."""
    if not isinstance(s, str):
        raise ValueError(f"rational must be a string, got {type(s).__name__}")
    if not _TWO_PASS_RATIONAL.match(s.strip()):
        raise ValueError(f"bad rational {s!r}: expected 'p/q' or 'p'")
    return Fraction(s.strip())


def _outcome(parse, s):
    try:
        return repr(parse(s))
    except Exception as e:  # the error's type and text must agree as well
        return (type(e).__name__, str(e))


# signs, ASCII, Arabic-Indic and fullwidth digits, ASCII and Unicode
# whitespace, and the pieces of decimals, exponents, underscores and 'inf'
_RATIONAL_TOKENS = st.sampled_from(
    ["+", "-", "/", "0", "1", "3", "9", "12", "/0", " ", "\t", "\n",
     "\x0b", "\x1c", "\u00a0", "\u0661", "\u0660", "\uff11", ".", "_",
     "e", "E", "inf", "x"]
)


@settings(max_examples=600)
@given(st.lists(_RATIONAL_TOKENS, max_size=8).map("".join))
@example("1" * 4301)
@example("-" + "1" * 4300)
@example("3/" + "1" * 4301)
@example(" \u0661\u0662/\u0663 ")
@example("\u00a0-7/21\n")
@example("5\n\n")
@example(None)
@example(7)
def test_parse_frac_agrees_with_the_two_pass_parser(s):
    assert _outcome(parse_frac, s) == _outcome(_parse_frac_two_pass, s)


def test_tree_round_trip(star_tree):
    doc = tree_to_json(star_tree)
    assert doc["root"] == "r"
    back = tree_from_json(doc)
    assert back == star_tree


def test_tree_schema_example():
    doc = {
        "root": "a",
        "nodes": [
            {"id": "a", "weight": "4", "children": ["e1", "k"]},
            {"id": "e1", "children": [], "leaf": {"kind": "end", "tail": "inf"}},
            {"id": "k", "weight": "1/2", "children": [], "leaf": {"kind": "closed"}},
        ],
    }
    t = tree_from_json(doc)
    assert t.weights["a"] == 4
    assert t.tails["e1"] is INF
    assert "k" in t.closed


def test_tree_schema_errors():
    with pytest.raises(SchemaError):
        tree_from_json({"nodes": []})
    with pytest.raises(SchemaError):
        tree_from_json({"root": "a", "nodes": [{"id": "a", "weight": "x"}]})
    with pytest.raises(SchemaError):
        tree_from_json(
            {
                "root": "a",
                "nodes": [{"id": "a", "leaf": {"kind": "mystery"}}],
            }
        )


@pytest.mark.parametrize(
    "entry",
    [{"id": "z", "children": []}, {"id": "z"}, {"id": "z", "leaf": None}],
)
def test_a_bare_node_entry_is_refused(entry):
    # a tree keeps no empty child list, so such a node would vanish unseen
    doc = {
        "root": "a",
        "nodes": [
            {"id": "a", "weight": "4", "children": ["e"]},
            {"id": "e", "leaf": {"kind": "end", "tail": "inf"}},
            entry,
        ],
    }
    with pytest.raises(SchemaError) as err:
        tree_from_json(doc)
    assert str(err.value) == "tree node 'z': no children, weight or leaf tag"


@pytest.mark.parametrize(
    "edit, error",
    [
        (
            lambda nodes: nodes[1].update(weight="7"),
            "tree node 'e': unexpected key 'weight' on an End leaf",
        ),
        (
            lambda nodes: nodes[2].update(bogus=1),
            "tree node 'f': unexpected key 'bogus'",
        ),
        (
            lambda nodes: nodes[0].update(tail="inf"),
            "tree node 'a': unexpected key 'tail'",
        ),
        (
            lambda nodes: nodes[1]["leaf"].update(weight="7"),
            "tree node 'e': unexpected key 'weight' in its leaf tag",
        ),
        (
            lambda nodes: nodes[2]["leaf"].update(tail="inf"),
            "tree node 'f': unexpected key 'tail' in its leaf tag",
        ),
        (
            lambda nodes: nodes[0].update(leaf={"bogus": 1}),
            "tree node 'a': unexpected key 'bogus' in its leaf tag",
        ),
    ],
    ids=[
        "weight_on_end_leaf",
        "unknown_entry_key",
        "tail_on_a_block",
        "weight_in_end_tag",
        "tail_in_closed_tag",
        "untyped_tag_key",
    ],
)
def test_a_key_no_reader_takes_is_refused(edit, error):
    # before, each of these keys was dropped unread
    doc = {
        "root": "a",
        "nodes": [
            {"id": "a", "weight": "4", "children": ["e", "f"]},
            {"id": "e", "leaf": {"kind": "end", "tail": "inf"}},
            {"id": "f", "weight": "1", "leaf": {"kind": "closed"}},
        ],
    }
    tree_from_json(doc)
    edit(doc["nodes"])
    with pytest.raises(SchemaError) as err:
        tree_from_json(doc)
    assert str(err.value) == error


_END = {"kind": "end", "tail": "inf"}

# a node entry with one fault, and the error naming it.  The canonical
# block and End entries are read after one test; every entry here fails
# that test or is canonical in shape with a fault the test leaves to the
# reader (a repeated id, a rational that does not parse), and each is
# named by the first of the entry checks it fails, in their order
NODE_FAULTS = {
    "not_an_object": ("z", "tree node: missing key 'id'"),
    "a_list": (["z"], "tree node: missing key 'id'"),
    "missing_id": (
        {"children": [], "leaf": _END}, "tree node: missing key 'id'"
    ),
    "id_not_a_str": (
        {"id": 7, "children": [], "leaf": _END},
        "tree node: key 'id' has the wrong type",
    ),
    "repeated_block_id": (
        {"id": "a", "children": [], "weight": "1", "leaf": None},
        "tree node 'a': repeated id",
    ),
    "repeated_end_id": (
        {"id": "e", "children": [], "leaf": _END},
        "tree node 'e': repeated id",
    ),
    "children_not_a_list": (
        {"id": "z", "children": "e", "weight": "1", "leaf": None},
        "tree node 'z': bad children list",
    ),
    "child_id_not_a_str": (
        {"id": "z", "children": [3], "weight": "1", "leaf": None},
        "tree node 'z': bad children list",
    ),
    "leaf_tag_not_an_object": (
        {"id": "z", "children": [], "leaf": "end"},
        "tree node 'z': bad leaf tag",
    ),
    "unknown_leaf_kind": (
        {"id": "z", "children": [], "leaf": {"kind": "mystery"}},
        "tree node 'z': unknown leaf kind 'mystery'",
    ),
    "leaf_kind_not_a_str": (
        {"id": "z", "children": [], "leaf": {"kind": 1, "tail": "inf"}},
        "tree node 'z': unknown leaf kind 1",
    ),
    "weight_on_end_leaf": (
        {"id": "z", "children": [], "weight": "1", "leaf": _END},
        "tree node 'z': unexpected key 'weight' on an End leaf",
    ),
    "stray_key_in_block": (
        {"id": "z", "children": [], "weight": "1", "leaf": None, "zz": 1},
        "tree node 'z': unexpected key 'zz'",
    ),
    "stray_key_in_end": (
        {"id": "z", "children": [], "leaf": _END, "zz": 1},
        "tree node 'z': unexpected key 'zz' on an End leaf",
    ),
    "stray_key_in_end_tag": (
        {"id": "z", "children": [], "leaf": dict(_END, zz=1)},
        "tree node 'z': unexpected key 'zz' in its leaf tag",
    ),
    "stray_key_in_closed_tag": (
        {"id": "z", "children": [], "weight": "1",
         "leaf": {"kind": "closed", "zz": 1}},
        "tree node 'z': unexpected key 'zz' in its leaf tag",
    ),
    "weight_does_not_parse": (
        {"id": "z", "children": [], "weight": "x", "leaf": None},
        "tree node 'z': bad rational 'x': expected 'p/q' or 'p'",
    ),
    "weight_not_a_str": (
        {"id": "z", "children": [], "weight": 1, "leaf": None},
        "tree node 'z': rational must be a string, got int",
    ),
    "weight_inf": (
        {"id": "z", "children": [], "weight": "inf", "leaf": None},
        "tree node 'z': bad rational 'inf': expected 'p/q' or 'p'",
    ),
    "tail_does_not_parse": (
        {"id": "z", "children": [], "leaf": {"kind": "end", "tail": "1.5"}},
        "tree node 'z': bad rational '1.5': expected 'p/q' or 'p'",
    ),
    "tail_not_a_str": (
        {"id": "z", "children": [], "leaf": {"kind": "end", "tail": 2}},
        "tree node 'z': end leaf: key 'tail' has the wrong type",
    ),
    "tail_missing": (
        {"id": "z", "children": [], "leaf": {"kind": "end"}},
        "tree node 'z': end leaf: missing key 'tail'",
    ),
    "no_children_weight_or_tag": (
        {"id": "z", "children": [], "leaf": None},
        "tree node 'z': no children, weight or leaf tag",
    ),
    "bad_weight_before_stray_key": (
        {"id": "z", "children": [], "weight": "x", "leaf": None, "zz": 1},
        "tree node 'z': bad rational 'x': expected 'p/q' or 'p'",
    ),
}


@pytest.mark.parametrize(
    "entry, error", NODE_FAULTS.values(), ids=NODE_FAULTS.keys()
)
def test_each_node_entry_fault_is_named(entry, error):
    nodes = [
        {"id": "a", "weight": "4", "children": ["e", "z"], "leaf": None},
        {"id": "e", "children": [], "leaf": _END},
        entry,
    ]
    with pytest.raises(SchemaError) as err:
        tree_from_json({"root": "a", "nodes": nodes})
    assert str(err.value) == error


def test_a_tree_top_level_key_no_reader_takes_is_refused():
    doc = tree_to_json(random_tree(Random(76)))
    with pytest.raises(SchemaError) as err:
        tree_from_json(dict(doc, extra=2))
    assert str(err.value) == "tree: unexpected key 'extra'"
    # the key is checked last: a fault of a node entry is reported first
    bad = dict(doc, nodes=[*doc["nodes"], {"children": []}], extra=2)
    with pytest.raises(SchemaError) as err:
        tree_from_json(bad)
    assert str(err.value) == "tree node: missing key 'id'"
    # a morphism's source and target are tree documents too
    pi = morphism_to_json(random_morphism(Random(77)))
    for side in ("source", "target"):
        with pytest.raises(SchemaError) as err:
            morphism_from_json(dict(pi, **{side: dict(pi[side], extra=2)}))
        assert str(err.value) == "tree: unexpected key 'extra'"
    # a star document is a tree document
    star_doc = star_to_json(random_star(Random(78)))
    assert tree_from_json(star_doc) == star_from_json(star_doc).to_tree()


def test_the_canonical_forms_still_load():
    t = BalloonTree(
        root="a",
        children={"a": ("e", "f", "g")},
        weights={"a": Fraction(4), "f": Fraction(1)},
        tails={"e": INF, "g": Fraction(3)},
        closed=frozenset({"f"}),
    )
    doc = json.loads(json.dumps(tree_to_json(t)))
    assert tree_from_json(doc) == t


def test_state_and_charge_round_trip(star_tree):
    mu = base_state(star_tree)
    assert state_from_json(star_tree, state_to_json(mu)) == mu
    c = EndCharge(star_tree, {"l1": Fraction(3, 2), "l2": Fraction(-3, 2)})
    assert charge_from_json(star_tree, charge_to_json(c)) == c
    # flat spelling is accepted as well
    assert charge_from_json(star_tree, {"l1": "3/2", "l2": "-3/2"}) == c


def test_word_round_trip():
    rng = Random(71)
    for _ in range(20):
        t = random_tree(rng)
        mu = base_state(t)
        w = random_preserving_word(rng, t, mu)
        doc = word_to_json(w)
        assert word_from_json(t, mu, doc) == w


def test_word_schema_errors(star_tree):
    mu = base_state(star_tree)
    with pytest.raises(SchemaError):
        word_from_json(star_tree, mu, {"moves": [{"teleport": {}}]})
    with pytest.raises(SchemaError):
        word_from_json(
            star_tree,
            mu,
            {"moves": [{"balloon": {"edge": ["r"], "amount": "1"}}]},
        )


@pytest.mark.parametrize(
    "balloon, error",
    [
        ({"edge": ["r", "u"]}, "missing key 'amount'"),
        ({"edge": ["r", "u"], "amount": 1}, "key 'amount' has the wrong type"),
    ],
    ids=["missing", "wrong_type"],
)
def test_a_bad_amount_is_labeled_once(star_tree, balloon, error):
    doc = {"moves": [{"balloon": balloon}]}
    with pytest.raises(SchemaError) as err:
        word_from_json(star_tree, base_state(star_tree), doc)
    assert str(err.value) == f"word move 0: {error}"


BALLOON = {"edge": ["r", "u"], "amount": "1"}
REARRANGE = {"support": ["r", "u"], "masses": {"r": "3", "u": "3"}}


@pytest.mark.parametrize(
    "doc, error",
    [
        (
            {"moves": [{"balloon": BALLOON, "rearrange": REARRANGE}]},
            "word move 0: unexpected key 'rearrange' in a balloon move",
        ),
        (
            {"moves": [{"balloon": BALLOON}, {"rearrange": REARRANGE, "x": 1}]},
            "word move 1: unexpected key 'x' in a rearrange move",
        ),
        (
            {"moves": [{"balloon": dict(BALLOON, bogus=1)}]},
            "word move 0: unexpected key 'bogus' in its balloon",
        ),
        (
            {"moves": [{"rearrange": dict(REARRANGE, amount="1")}]},
            "word move 0: unexpected key 'amount' in its rearrange",
        ),
        ({"moves": [], "extra": 3}, "word: unexpected key 'extra'"),
    ],
    ids=["two_kinds", "extra_move_key", "balloon", "rearrange", "document"],
)
def test_a_word_key_no_reader_takes_is_refused(star_tree, doc, error):
    with pytest.raises(SchemaError) as err:
        word_from_json(star_tree, base_state(star_tree), doc)
    assert str(err.value) == error


@pytest.mark.parametrize(
    "balloon, error",
    [
        ({"edge": ["r", "u"], "amount": "1/0"}, "bad rational '1/0'"),
        ({"edge": ["r", 1], "amount": "1"}, "edge needs two node ids"),
        ({"edge": ["r", "u", "l1"], "amount": "1"}, "edge needs two node ids"),
        ({"edge": "ru", "amount": "1"}, "key 'edge' has the wrong type"),
        (
            {"edge": ["r", "u"], "amount": "1/0", "bogus": 1},
            "bad rational '1/0'",
        ),
        (
            {"edge": ["r", 1], "amount": "1/0", "bogus": 1},
            "edge needs two node ids",
        ),
    ],
    ids=[
        "rational", "id", "three_ids", "edge_type", "rational_first",
        "edge_first",
    ],
)
def test_a_balloon_fault_is_named_as_before(star_tree, balloon, error):
    """A well-formed balloon entry is accepted after one test; any other is
    read by the general checks, which name its first fault."""
    doc = {"moves": [{"rearrange": REARRANGE}, {"balloon": balloon}]}
    with pytest.raises(SchemaError) as err:
        word_from_json(star_tree, base_state(star_tree), doc)
    assert str(err.value).startswith(f"word move 1: {error}")


def test_a_well_formed_balloon_loads_as_its_move(star_tree):
    halved = dict(BALLOON, amount="-1/2")
    doc = {"moves": [{"balloon": BALLOON}, {"balloon": halved}]}
    word = word_from_json(star_tree, base_state(star_tree), doc)
    assert [(type(mv.edge), mv.edge, mv.amount) for mv in word.moves] == [
        (tuple, ("r", "u"), Fraction(1)),
        (tuple, ("r", "u"), Fraction(-1, 2)),
    ]
    assert all(type(mv.amount) is Fraction for mv in word.moves)


def test_a_measure_key_no_reader_takes_is_refused(star_tree):
    doc = state_to_json(base_state(star_tree))
    with pytest.raises(SchemaError) as err:
        state_from_json(star_tree, dict(doc, zz=1))
    assert str(err.value) == "measure: unexpected key 'zz'"
    # the key is checked last: a fault of the masses is reported first
    bad = dict(doc, blocks=dict(doc["blocks"], r="1/0"), zz=1)
    with pytest.raises(SchemaError) as err:
        state_from_json(star_tree, bad)
    assert str(err.value).startswith("measure: bad rational '1/0'")
    with pytest.raises(SchemaError) as err:
        state_from_json(star_tree, {"blocks": doc["blocks"], "zz": 1})
    assert str(err.value) == "measure: missing key 'tails'"


def test_a_morphism_key_no_reader_takes_is_refused():
    doc = morphism_to_json(random_morphism(Random(75)))
    with pytest.raises(SchemaError) as err:
        morphism_from_json(dict(doc, zz=1))
    assert str(err.value) == "morphism: unexpected key 'zz'"
    # the key is checked last: a fault of a tree or the map is reported first
    for bad, error in (
        (dict(doc, map=[], zz=1), "morphism: key 'map' has the wrong type"),
        (dict(doc, map={"a": 1}, zz=1), "morphism: map must be id to id"),
        (dict(doc, source={}, zz=1), "tree: missing key 'root'"),
    ):
        with pytest.raises(SchemaError) as err:
            morphism_from_json(bad)
        assert str(err.value) == error


def test_a_charge_key_no_reader_takes_is_refused(star_tree):
    doc = {"values": {"l1": "1", "l2": "-1"}, "extra": 3}
    with pytest.raises(SchemaError) as err:
        charge_from_json(star_tree, doc)
    assert str(err.value) == "charge: unexpected key 'extra'"
    # the flat spelling names End leaves only, which EndCharge checks
    del doc["extra"]
    assert charge_from_json(star_tree, doc) == charge_from_json(
        star_tree, doc["values"]
    )


def test_a_flat_charge_may_name_an_end_leaf_values():
    t = BalloonTree(
        root="a",
        children={"a": ("values", "x")},
        weights={"a": Fraction(4)},
        tails={"values": INF, "x": INF},
    )
    expected = EndCharge(t, {"values": Fraction(1), "x": Fraction(-1)})
    flat = {"values": "1", "x": "-1"}
    assert charge_from_json(t, flat) == expected
    assert charge_from_json(t, {"values": flat}) == expected


def test_morphism_round_trip():
    rng = Random(72)
    for _ in range(10):
        pi = random_morphism(rng)
        back = morphism_from_json(morphism_to_json(pi))
        assert back.source == pi.source
        assert back.target == pi.target
        assert back.node_map == pi.node_map


def test_star_round_trip():
    rng = Random(73)
    for _ in range(10):
        star = random_star(rng)
        doc = star_to_json(star)
        assert doc["star"] == {"rays": star.ray_count, "depth": star.depth}
        back = star_from_json(doc)
        assert back.cells == star.cells
        assert back.tails == star.tails
        assert back.center_mass == star.center_mass


def test_a_star_key_no_reader_takes_is_refused():
    doc = star_to_json(random_star(Random(74)))
    header = dict(doc["star"], bogus=1)
    for bad, error in (
        (dict(doc, star=header), "star header: unexpected key 'bogus'"),
        (dict(doc, extra=2), "star: unexpected key 'extra'"),
    ):
        with pytest.raises(SchemaError) as err:
            star_from_json(bad)
        assert str(err.value) == error
    # the key is checked last: a fault of the tree is reported first
    bad = dict(doc, star=header, extra=2, root="x")
    with pytest.raises(SchemaError) as err:
        star_from_json(bad)
    assert str(err.value) == "star: the root is 'x', not 'c'"
    assert star_from_json(doc).to_tree() == tree_from_json(doc)


# -- round trips through JSON text ---------------------------------------------

rngs = st.randoms(use_true_random=False)


def _through_text(doc):
    return json.loads(json.dumps(doc))


def _tree(rng):
    return random_tree(
        rng, max_depth=rng.randint(1, 5), max_nodes=rng.choice([4, 16, 48])
    )


@given(rng=rngs)
def test_tree_and_state_round_trip_to_equal_values(rng):
    t = _tree(rng)
    assert tree_from_json(_through_text(tree_to_json(t))) == t
    mu = random_state(rng, t)
    assert state_from_json(t, _through_text(state_to_json(mu))) == mu


@given(rng=rngs, data=st.data())
def test_charge_round_trips_to_an_equal_value(rng, data):
    t = _tree(rng)
    c = EndCharge(t, {v: data.draw(st.fractions()) for v in t.end_leaves})
    assert charge_from_json(t, _through_text(charge_to_json(c))) == c


@given(rng=rngs)
def test_word_round_trips_to_an_equal_value(rng):
    t = _tree(rng)
    mu = random_state(rng, t)
    w = random_preserving_word(
        rng, t, mu, transfers=rng.randint(0, 4), shuffles=rng.randint(0, 3)
    )
    assert word_from_json(t, mu, _through_text(word_to_json(w))) == w


# RayStar and TreeMorphism compare by identity, so their round trip is
# read back from the document: it must serialize to the same JSON


@given(rng=rngs)
def test_morphism_document_survives_a_round_trip(rng):
    doc = morphism_to_json(random_morphism(rng, max_depth=rng.randint(1, 4)))
    back = morphism_from_json(_through_text(doc))
    assert json.dumps(morphism_to_json(back)) == json.dumps(doc)


@given(rng=rngs)
def test_star_document_survives_a_round_trip(rng):
    star = random_star(rng, max_rays=rng.randint(2, 5), max_depth=rng.randint(1, 4))
    doc = star_to_json(star)
    back = star_from_json(_through_text(doc))
    assert json.dumps(star_to_json(back)) == json.dumps(doc)


# -- every accepted document reads back as itself --------------------------------
# A document drawn through ``gen`` is respelled: its object keys shuffled and
# each rational written another way with the same value.  Loading it and
# writing it out again must give the drawn document back, so it equals the
# respelled one up to key order and equal rationals.

_RATIONAL_TEXT = re.compile(r"^-?\d+(/\d+)?$")


def _respell(rng, doc):
    if isinstance(doc, dict):
        items = list(doc.items())
        rng.shuffle(items)
        return {k: _respell(rng, v) for k, v in items}
    if isinstance(doc, list):
        return [_respell(rng, v) for v in doc]
    if isinstance(doc, str) and _RATIONAL_TEXT.match(doc):
        x = parse_frac(doc)
        k = rng.randint(1, 3)
        text = f"{x.numerator * k}/{x.denominator * k}"
        return "+" + text if x >= 0 and rng.random() < 0.5 else text
    return doc


def _same(a, b):
    """Equal up to key order and equal rationals."""
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(_same(a[k], b[k]) for k in a)
        )
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, str) and isinstance(b, str) and a != b:
        try:
            return parse_mass(a) == parse_mass(b)
        except ValueError:
            return False
    return type(a) is type(b) and a == b


def _drawn_docs(rng):
    """(document, writer, reader) of each kind, drawn through ``gen``."""
    t = _tree(rng)
    mu = random_state(rng, t)
    word = random_preserving_word(
        rng, t, mu, transfers=rng.randint(0, 4), shuffles=rng.randint(0, 3)
    )
    pi = random_morphism(rng, max_depth=rng.randint(1, 4))
    star = random_star(
        rng, max_rays=rng.randint(2, 5), max_depth=rng.randint(1, 4)
    )
    yield tree_to_json(t), tree_to_json, tree_from_json
    yield state_to_json(mu), state_to_json, partial(state_from_json, t)
    charge = random_valid_charge(rng, t, mu)
    yield charge_to_json(charge), charge_to_json, partial(charge_from_json, t)
    yield word_to_json(word), word_to_json, partial(word_from_json, t, mu)
    yield morphism_to_json(pi), morphism_to_json, morphism_from_json
    yield star_to_json(star), star_to_json, star_from_json


@given(rng=rngs)
def test_an_accepted_document_reads_back_as_itself(rng):
    for doc, dump, load in _drawn_docs(rng):
        respelled = _through_text(_respell(rng, doc))
        back = dump(load(respelled))
        assert back == doc
        assert _same(back, respelled)


_FORMS = (
    ("closed leaf", '"kind": "closed"'),
    ("finite tail", r'"tail": "\d'),
    ("rearrange", '"rearrange"'),
)


def test_the_drawn_documents_hold_every_form():
    """The property's draws hold Closed leaves, finite tails (in trees and
    stars) and rearranges."""
    seen = set()
    for seed in range(20):
        for doc, dump, _ in _drawn_docs(Random(seed)):
            text = json.dumps(doc)
            seen.update(
                f"{dump.__name__}: {form}"
                for form, mark in _FORMS
                if re.search(mark, text)
            )
    assert {
        "tree_to_json: closed leaf",
        "tree_to_json: finite tail",
        "word_to_json: rearrange",
        "morphism_to_json: closed leaf",
        "star_to_json: finite tail",
    } <= seen
