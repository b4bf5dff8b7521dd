from fractions import Fraction
from random import Random

import pytest

from endflow.charge import EndCharge, validate_charge
from endflow.errors import NonPositiveBlockError, NotLiftableError
from endflow.extmath import INF
from endflow.gen import (
    random_morphism,
    random_preserving_word,
    random_state,
    random_valid_charge,
)
from endflow.measure import base_state, mass
from endflow.morphism import (
    TreeMorphism,
    check_diagram,
    compose,
    identity_morphism,
    lift_section,
    pull_measure,
    push_charge,
    push_measure,
    push_word,
)
from endflow.transport import (
    BalloonMove,
    MoveWord,
    Rearrange,
    charge_of_word,
    empty_word,
    is_measure_preserving,
)
from endflow.tree import BalloonTree


@pytest.fixture
def collapse(star_tree):
    """Source: the fixture with a closed two-block appendage under u,
    collapsed onto u."""
    source = BalloonTree(
        root="r",
        children={
            "r": ("u", "v", "l3"),
            "u": ("l1", "k1"),
            "k1": ("k2",),
            "v": ("l2",),
        },
        weights={
            "r": Fraction(4),
            "u": Fraction(1),
            "k1": Fraction(1, 2),
            "k2": Fraction(1, 2),
            "v": Fraction(1),
        },
        tails={"l1": INF, "l2": INF, "l3": Fraction(5)},
        closed=frozenset({"k2"}),
    )
    node_map = {v: v for v in source.nodes if not v.startswith("k")}
    node_map["k1"] = "u"
    node_map["k2"] = "u"
    return TreeMorphism(source, star_tree, node_map)


def test_collapse_is_valid(collapse):
    assert collapse.validate() == []
    assert collapse.collapsed == (frozenset({"u", "k1", "k2"}),)


def test_identity_morphism_roundtrips(star_tree):
    ident = identity_morphism(star_tree)
    assert ident.validate() == []
    mu = base_state(star_tree)
    assert push_measure(ident, mu) == mu
    a = EndCharge(star_tree, {"l1": Fraction(3), "l2": Fraction(-3)})
    assert push_charge(ident, a) == a
    w = empty_word(mu)
    assert push_word(ident, w) == w


def test_push_measure_sums_fibers(collapse):
    mu = base_state(collapse.source)
    nu = push_measure(collapse, mu)
    assert nu.blocks["u"] == 2  # 1 + 1/2 + 1/2
    assert nu.blocks["r"] == 4
    assert nu.tails == {"l1": INF, "l2": INF, "l3": Fraction(5)}


def test_push_measure_collapses_two_block_chain():
    source = BalloonTree(
        root="a",
        children={"a": ("b", "e"), "b": ("c",)},
        weights={"a": Fraction(2), "b": Fraction(1), "c": Fraction(3)},
        tails={"e": INF},
        closed=frozenset({"c"}),
    )
    target = BalloonTree(
        root="a",
        children={"a": ("b", "e")},
        weights={"a": Fraction(2), "b": Fraction(4)},
        tails={"e": INF},
        closed=frozenset({"b"}),
    )
    pi = TreeMorphism(source, target, {"a": "a", "b": "b", "c": "b", "e": "e"})
    assert pi.validate() == []
    pushed = push_measure(pi, base_state(source))
    assert pushed.blocks["b"] == 4


def test_push_measure_preserves_total_mass():
    rng = Random(51)
    for _ in range(30):
        pi = random_morphism(rng)
        mu = random_state(rng, pi.source)
        nu = push_measure(pi, mu)
        src_total = mass(mu, set(pi.source.block_nodes))
        dst_total = mass(nu, set(pi.target.block_nodes))
        assert src_total == dst_total


def test_push_charge(collapse):
    a = EndCharge(collapse.source, {"l1": Fraction(2), "l2": Fraction(-2)})
    pushed = push_charge(collapse, a)
    assert pushed.values == {"l1": 2, "l2": -2, "l3": 0}


def test_push_charge_keeps_admissibility():
    rng = Random(52)
    for _ in range(30):
        pi = random_morphism(rng)
        mu = base_state(pi.source)
        a = random_valid_charge(rng, pi.source, mu)
        assert validate_charge(push_measure(pi, mu), push_charge(pi, a))


def test_push_word_relabels(collapse, star_tree):
    mu = base_state(collapse.source)
    w = MoveWord(
        collapse.source,
        mu,
        (
            BalloonMove(("r", "u"), Fraction(3)),
            BalloonMove(("u", "l1"), Fraction(3)),
            BalloonMove(("v", "l2"), Fraction(-3)),
            BalloonMove(("r", "v"), Fraction(-3)),
        ),
    )
    pushed = push_word(collapse, w)
    assert pushed.tree == star_tree
    assert [m.edge for m in pushed.moves] == [
        ("r", "u"), ("u", "l1"), ("v", "l2"), ("r", "v"),
    ]
    assert charge_of_word(pushed) == push_charge(collapse, charge_of_word(w))


def test_push_word_rejects_collapsed_moves(collapse):
    mu = base_state(collapse.source)
    inside = MoveWord(
        collapse.source, mu, (BalloonMove(("k1", "k2"), Fraction(1, 4)),)
    )
    with pytest.raises(NotLiftableError):
        push_word(collapse, inside)
    shuffle = MoveWord(
        collapse.source,
        mu,
        (
            Rearrange(
                frozenset({"k1", "k2"}),
                {"k1": Fraction(3, 4), "k2": Fraction(1, 4)},
            ),
        ),
    )
    with pytest.raises(NotLiftableError):
        push_word(collapse, shuffle)


def test_push_word_failure_carries_index(collapse):
    mu = base_state(collapse.source)
    w = MoveWord(
        collapse.source,
        mu,
        (
            BalloonMove(("r", "u"), Fraction(1)),
            BalloonMove(("r", "u"), Fraction(5)),
        ),
    )
    with pytest.raises(NonPositiveBlockError) as err:
        push_word(collapse, w)
    assert err.value.move_index == 1


def test_check_diagram(collapse):
    rng = Random(53)
    mu = base_state(collapse.source)
    assert check_diagram(identity_morphism(collapse.source), mu, empty_word(mu))
    w = random_preserving_word(
        rng, collapse.source, mu, avoid=collapse.collapsed_nodes
    )
    assert check_diagram(collapse, mu, w)


def test_check_diagram_randomized():
    rng = Random(54)
    for _ in range(40):
        pi = random_morphism(rng)
        mu = base_state(pi.source)
        w = random_preserving_word(rng, pi.source, mu, avoid=pi.collapsed_nodes)
        assert check_diagram(pi, mu, w)


def test_region_transfer_commutes_with_push():
    from endflow.transport import region_transfer

    rng = Random(58)
    for _ in range(30):
        pi = random_morphism(rng)
        mu = base_state(pi.source)
        w = random_preserving_word(rng, pi.source, mu, avoid=pi.collapsed_nodes)
        pushed = push_word(pi, w)
        region = frozenset(
            v for v in pi.target.nodes if rng.random() < 0.4
        )
        pre = frozenset(
            v for v in pi.source.nodes if pi.node_map[v] in region
        )
        assert region_transfer(pushed, region) == region_transfer(w, pre)


def test_functoriality():
    rng = Random(55)
    for _ in range(20):
        pi = random_morphism(rng)
        ident_s = identity_morphism(pi.source)
        ident_t = identity_morphism(pi.target)
        assert compose(pi, ident_s).node_map == pi.node_map
        assert compose(ident_t, pi).node_map == pi.node_map
        mu = random_state(rng, pi.source)
        assert push_measure(ident_t, push_measure(pi, mu)) == push_measure(
            compose(ident_t, pi), mu
        )
        a = random_valid_charge(rng, pi.source)
        assert push_charge(ident_t, push_charge(pi, a)) == push_charge(
            compose(ident_t, pi), a
        )
        w = random_preserving_word(
            rng, pi.source, base_state(pi.source), avoid=pi.collapsed_nodes
        )
        assert push_word(ident_t, push_word(pi, w)) == push_word(
            compose(ident_t, pi), w
        )


def test_pull_measure_is_a_section_of_push():
    rng = Random(56)
    for _ in range(30):
        pi = random_morphism(rng)
        nu = random_state(rng, pi.target)
        assert push_measure(pi, pull_measure(pi, nu)) == nu


def test_lift_section_identity(star_tree):
    mu = base_state(star_tree)
    a = EndCharge(star_tree, {"l1": Fraction(3), "l2": Fraction(-3)})
    lifted = lift_section(identity_morphism(star_tree), mu, a)
    assert charge_of_word(lifted) == a
    zero = lift_section(
        identity_morphism(star_tree), mu, EndCharge(star_tree, {})
    )
    assert len(zero) == 0


def test_lift_section_through_collapse(collapse, star_tree):
    mu = base_state(star_tree)
    a = EndCharge(star_tree, {"l1": Fraction(3), "l2": Fraction(-3)})
    lifted = lift_section(collapse, mu, a)
    assert lifted.tree == star_tree
    assert is_measure_preserving(lifted)
    assert charge_of_word(lifted) == a


def test_lift_section_randomized():
    rng = Random(57)
    for _ in range(25):
        pi = random_morphism(rng)
        mu = base_state(pi.target)
        a = random_valid_charge(rng, pi.target, mu)
        lifted = lift_section(pi, mu, a)
        assert charge_of_word(lifted) == a
