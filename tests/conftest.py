import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from endflow.extmath import INF  # noqa: E402
from endflow.gen import random_tree, small_fraction  # noqa: E402
from endflow.raystar import RayStar  # noqa: E402
from endflow.tree import BalloonTree  # noqa: E402

# immutable value fixtures are safe to share across generated examples
settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("suite")


@pytest.fixture
def star_tree() -> BalloonTree:
    """Root of weight 4 with two weighted branches ending in infinite
    tails and one finite tail hanging directly off the root."""
    return BalloonTree(
        root="r",
        children={"r": ("u", "v", "l3"), "u": ("l1",), "v": ("l2",)},
        weights={"r": Fraction(4), "u": Fraction(2), "v": Fraction(1)},
        tails={"l1": INF, "l2": INF, "l3": Fraction(5)},
    )


def _binary_tree(rng: Random, depth: int) -> BalloonTree:
    """Complete binary tree with blocks above ``depth`` and tails at it,
    every third tail finite."""
    children, weights, tails = {}, {}, {}
    stack = [("", 0)]
    while stack:
        path, d = stack.pop()
        v = "n" + path
        if d == depth:
            tails[v] = small_fraction(rng) if len(tails) % 3 == 2 else INF
            continue
        weights[v] = small_fraction(rng)
        children[v] = (v + "0", v + "1")
        stack += [(path + "1", d + 1), (path + "0", d + 1)]
    return BalloonTree(root="n", children=children, weights=weights, tails=tails)


def _chain_star(rng: Random, rays: int, depth: int) -> BalloonTree:
    """A ray star's tree: long chains, the last ray ending in a finite tail."""
    cells = tuple(
        tuple(small_fraction(rng) for _ in range(depth)) for _ in range(rays)
    )
    tails = (INF,) * (rays - 1) + (small_fraction(rng),)
    return RayStar(small_fraction(rng), cells, tails).to_tree()


@pytest.fixture(scope="session")
def sample_trees():
    """Seeded random trees of every shape the section meets: twelve
    ``random_tree`` draws, two complete binary trees and two chain stars."""
    rng = Random(2005)
    trees = [
        random_tree(rng, max_depth=2 + k % 5, max_nodes=16 + 4 * k)
        for k in range(12)
    ]
    trees += [_binary_tree(rng, 4), _binary_tree(rng, 6)]
    trees += [_chain_star(rng, 4, 12), _chain_star(rng, 3, 30)]
    return trees
