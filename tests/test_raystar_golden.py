"""realize_word against a recorded digest.

The golden digest pins the exact values of the realized maps on a seeded
corpus of star words: every piece, the last breakpoint, the charge read
off the definition just beyond it, and the fixed and preimage intervals
of a node subset.  A change to how words are realized that moves a single
piece boundary, or turns a ``Fraction`` into an ``int``, shows here.
"""

import hashlib
from random import Random

from endflow.extmath import INF
from endflow.gen import random_preserving_word, random_star, small_fraction
from endflow.measure import base_state
from endflow.raystar import (
    RayStar,
    charge_from_definition,
    preimage_intervals,
    realize_word,
    region_intervals,
)

# sha256 of the realizations of the corpus below; a new value means
# realize_word's output changed
GOLDEN_SHA256 = (
    "a9abc0ac0e6fa4c87b158d92efb88941aa9619e0fc377d61f0ca4d2d411d8755"
)


def _corpus():
    rng = Random("raystar-golden")
    for _ in range(60):
        star = random_star(rng, max_rays=5, max_depth=5)
        tree = star.to_tree()
        word = random_preserving_word(
            rng,
            tree,
            base_state(tree),
            transfers=rng.randint(1, 8),
            shuffles=rng.randint(0, 4),
        )
        yield star, word
    for depth in (16, 24, 32):
        star = RayStar(
            small_fraction(rng),
            tuple(
                tuple(small_fraction(rng) for _ in range(depth)) for _ in range(4)
            ),
            (INF, small_fraction(rng), INF, INF),
        )
        tree = star.to_tree()
        yield star, random_preserving_word(
            rng, tree, base_state(tree), transfers=6, shuffles=4
        )


def _nodes(star):
    """A fixed node subset: the center, a first and a last cell, two ends."""
    return [
        star.center_id(),
        star.cell_id(0, 0),
        star.cell_id(1, star.depth - 1),
        star.end_id(0),
        star.end_id(1),
    ]


def _record(star, word):
    h = realize_word(star, word)
    cut = h.last_breakpoint() + 1
    charge = charge_from_definition(star, h, cut)
    fixed = region_intervals(star, _nodes(star))
    lines = [repr(p) for p in h.pieces]
    lines.append(repr(h.last_breakpoint()))
    lines.append(repr(sorted(charge.values.items())))
    lines.append(repr(fixed))
    lines.append(repr(preimage_intervals(h, fixed)))
    return "\n".join(lines)


def test_realize_word_golden_digest():
    digest = hashlib.sha256()
    for star, word in _corpus():
        digest.update(_record(star, word).encode())
        digest.update(b"\n\n")
    assert digest.hexdigest() == GOLDEN_SHA256
