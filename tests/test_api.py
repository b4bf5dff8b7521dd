"""The package's public names and the equality of its exact value types."""

import copy
import dataclasses
from fractions import Fraction

import pytest

import endflow
from endflow.charge import EndCharge
from endflow.extmath import INF
from endflow.measure import MeasureState
from endflow.transport import BalloonMove, FluxField, MoveWord, Rearrange
from endflow.tree import BalloonTree

# perfbench and the scripts import these names; dropping one is an API change
PUBLIC_NAMES = [
    "BalloonMove", "BalloonTree", "EndCharge", "Exhaustion",
    "FeasibilityInterval", "FluxField", "INF", "Inf", "MeasureState",
    "MoveWord", "NEG_INF", "PLMap", "RayStar", "Rearrange", "TreeMorphism",
    "align_step", "apply_move", "apply_word", "as_frac", "base_state",
    "build_section", "charge", "charge_eval", "charge_from_definition",
    "charge_of_word", "check_diagram", "compactly_equivalent",
    "compare_oracle", "compose", "concat", "empty_word", "end_complement",
    "end_intersection", "end_union", "ends_disjoint", "errors",
    "extensionally_equal", "extmath", "factorize", "feasibility_interval",
    "forced_flux", "identity_morphism", "invert_word",
    "is_measure_preserving", "j_value", "lift_section", "linear_combine",
    "mass", "measure", "morphism", "mu_equivalent", "omega_finite_ends",
    "parse_frac", "parse_mass", "pull_charge", "pull_measure",
    "push_charge", "push_measure", "push_word", "raystar", "realize_word",
    "region_ends", "region_transfer", "retract", "scale_charge", "section",
    "solve_balloon_parameter", "transport", "tree", "validate_charge",
    "validate_tree", "zero_charge",
]


def test_public_names_are_pinned():
    assert sorted(endflow.__all__) == PUBLIC_NAMES


def _tree(root_weight=4):
    return BalloonTree(
        root="r",
        children={"r": ("u", "v", "l3"), "u": ("l1",), "v": ("l2",)},
        weights={"r": Fraction(root_weight), "u": Fraction(2), "v": Fraction(1)},
        tails={"l1": INF, "l2": INF, "l3": Fraction(5)},
    )


def _state(tree=None):
    tree = tree or _tree()
    return MeasureState(
        tree,
        {"r": Fraction(4), "u": Fraction(2), "v": Fraction(1)},
        {"l1": INF, "l2": INF, "l3": Fraction(5)},
    )


def _moves():
    return (
        BalloonMove(("r", "u"), Fraction(1)),
        Rearrange({"r", "u"}, {"r": Fraction(4), "u": Fraction(2)}),
    )


# each type: a builder of fresh values with equal fields, and for every
# field a different value to put in its place
VALUE_TYPES = {
    "BalloonTree": (
        _tree,
        {
            "root": "u",
            "children": {"r": ("v", "u", "l3"), "u": ("l1",), "v": ("l2",)},
            "weights": {"r": Fraction(5), "u": Fraction(2), "v": Fraction(1)},
            "tails": {"l1": INF, "l2": INF, "l3": Fraction(6)},
            "closed": frozenset({"l3"}),
        },
    ),
    "MeasureState": (
        _state,
        {
            "tree": _tree(5),
            "blocks": {"r": Fraction(3), "u": Fraction(3), "v": Fraction(1)},
            "tails": {"l1": INF, "l2": INF, "l3": Fraction(7)},
        },
    ),
    "EndCharge": (
        lambda: EndCharge(_tree(), {"l1": Fraction(3), "l2": Fraction(-3)}),
        {
            "tree": _tree(5),
            "values": {"l1": Fraction(2), "l2": Fraction(-2), "l3": Fraction(0)},
        },
    ),
    "Rearrange": (
        lambda: _moves()[1],
        {
            "support": frozenset({"r", "v"}),
            "masses": {"r": Fraction(5), "u": Fraction(1)},
        },
    ),
    "MoveWord": (
        lambda: MoveWord(_tree(), _state(), _moves()),
        {
            "tree": _tree(5),
            "base": _state(_tree(5)),
            "moves": _moves()[:1],
        },
    ),
    "FluxField": (
        lambda: FluxField(_tree(), {("r", "u"): Fraction(1, 2)}),
        {
            "tree": _tree(5),
            "flux": dict(FluxField(_tree(), {}).flux),
        },
    ),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_values_compare_by_their_fields(name):
    make, others = VALUE_TYPES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    fields = [f.name for f in dataclasses.fields(a)]
    assert sorted(fields) == sorted(others)
    for field in fields:
        changed = copy.copy(b)
        object.__setattr__(changed, field, others[field])
        assert a != changed, field
        assert changed != a, field


def test_equal_trees_hash_equal():
    assert hash(_tree()) == hash(_tree())


@pytest.mark.parametrize("name", sorted(set(VALUE_TYPES) - {"BalloonTree"}))
def test_other_value_types_are_unhashable(name):
    with pytest.raises(TypeError):
        hash(VALUE_TYPES[name][0]())
