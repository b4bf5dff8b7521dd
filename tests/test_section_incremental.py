"""build_section against a recorded digest and against align_step.

The golden digest pins the exact bytes of the serialized sections on a
seeded corpus, so a change to how the section is computed that alters a
single move shows here.  The differential test rebuilds each section
level by level through the public ``align_step`` (which replays both
words from the base measure) and requires the same moves.
"""

import hashlib
import json
from fractions import Fraction
from random import Random

from endflow.charge import scale_charge
from endflow.extmath import INF
from endflow.gen import random_state, random_tree, random_valid_charge, small_fraction
from endflow.measure import base_state
from endflow.raystar import RayStar
from endflow.section import Exhaustion, align_step, build_section
from endflow.serialize import word_to_json
from endflow.transport import concat, empty_word, invert_word

# sha256 of the serialized sections of the corpus below; a new value
# means build_section's output bytes changed
GOLDEN_SHA256 = (
    "4a7f9e52eb3033d47cebc25314983814acacbc54b3dcd9cf55a8bcefbf465933"
)


def _corpus():
    rng = Random("section-golden")
    for i in range(48):
        tree = random_tree(
            rng, max_depth=rng.randint(2, 5), max_nodes=rng.choice([16, 32, 48])
        )
        mu = base_state(tree) if i % 2 == 0 else random_state(rng, tree)
        yield tree, mu, random_valid_charge(rng, tree, mu)
    for depth in (1, 2, 4, 8, 12, 16):
        star = RayStar(
            small_fraction(rng),
            tuple(
                tuple(small_fraction(rng) for _ in range(depth)) for _ in range(4)
            ),
            (INF, small_fraction(rng), INF, INF),
        )
        tree = star.to_tree()
        mu = base_state(tree)
        yield tree, mu, random_valid_charge(rng, tree, mu)


def _section_by_align_step(tree, mu, a):
    """build_section's schedule, one public align_step per half level."""
    if a.is_zero():
        return empty_word(mu)
    levels = list(Exhaustion.default(tree).levels)
    if len(levels) % 2:
        levels.append(levels[-1])
    neg_a = scale_charge(Fraction(-1), a)
    f = empty_word(mu)
    g = empty_word(mu)
    prev = frozenset()
    for k in range(0, len(levels), 2):
        K, L = levels[k], levels[k + 1]
        f = concat(f, align_step(mu, prev, K, f, g, a))
        g = concat(g, align_step(mu, K, L, g, f, neg_a))
        prev = L
    return concat(f, invert_word(g))


def test_build_section_golden_digest():
    h = hashlib.sha256()
    for tree, mu, a in _corpus():
        word = build_section(tree, mu, a)
        h.update(json.dumps(word_to_json(word), sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == GOLDEN_SHA256


def test_build_section_equals_align_step_levels():
    for tree, mu, a in _corpus():
        word = build_section(tree, mu, a)
        ref = _section_by_align_step(tree, mu, a)
        assert word.base == ref.base
        assert word.moves == ref.moves
