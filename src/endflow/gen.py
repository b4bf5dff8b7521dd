"""Seeded random instances for the verification suites.

Everything here is deterministic given a ``random.Random``; amounts are
small rationals so exact arithmetic stays cheap.  Preserving words are
assembled from primitives that are safe by construction (routed
tail-to-tail transfers, and shuffles undone at the end), so the suites
never trip over positivity while still covering nonzero charges.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import List, Optional

from .charge import EndCharge
from .extmath import INF, ExtMass, is_inf
from .measure import MeasureState, base_state
from .morphism import TreeMorphism
from .raystar import RayStar
from .transport import MoveWord, Rearrange, _Runner, route
from .tree import BalloonTree


def small_fraction(rng: Random, top: int = 9, bottom: int = 4) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, bottom))


def random_tree(
    rng: Random,
    max_depth: int = 4,
    max_nodes: int = 24,
) -> BalloonTree:
    """Random balloon tree with at least two infinite tails."""
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"n{counter[0]}"

    children = {}
    weights = {}
    tails = {}
    closed = set()
    root = fresh()
    weights[root] = small_fraction(rng)
    frontier = [(root, 0)]
    total = 1
    while frontier:
        v, d = frontier.pop(0)
        if d >= max_depth or total >= max_nodes:
            n_kids = 0
        elif d == 0:
            n_kids = rng.choice([1, 2, 2, 3, 3])
        else:
            n_kids = rng.choice([0, 1, 2, 2, 3])
        kids = []
        for _ in range(n_kids):
            if total >= max_nodes:
                break
            c = fresh()
            total += 1
            kids.append(c)
            if d + 1 >= max_depth or rng.random() < 0.22:
                roll = rng.random()
                if roll < 0.55:
                    tails[c] = INF
                elif roll < 0.85:
                    tails[c] = small_fraction(rng)
                else:
                    closed.add(c)
                    weights[c] = small_fraction(rng)
            else:
                weights[c] = small_fraction(rng)
                frontier.append((c, d + 1))
        children[v] = tuple(kids)
    # grown blocks that ended up childless become Closed leaves
    for v in list(weights):
        if not children.get(v) and v != root:
            closed.add(v)
    if not children.get(root):
        c = fresh()
        tails[c] = INF
        children[root] = (c,)
    infinite = [v for v, m in tails.items() if is_inf(m)]
    finite_pool = sorted(v for v in tails if not is_inf(tails[v]))
    while len(infinite) < 2:
        if finite_pool:
            v = finite_pool.pop(rng.randrange(len(finite_pool)))
            tails[v] = INF
        else:
            interior = sorted(v for v in weights if v not in closed)
            parent = rng.choice(interior) if interior else root
            v = fresh()
            tails[v] = INF
            children[parent] = tuple(children.get(parent, ())) + (v,)
        infinite.append(v)
    return BalloonTree(
        root=root,
        children=children,
        weights=weights,
        tails=tails,
        closed=frozenset(closed),
    )


def random_state(rng: Random, tree: BalloonTree) -> MeasureState:
    """Positive masses with the tree's tail finiteness pattern."""
    blocks = {v: small_fraction(rng) for v in tree.block_nodes}
    tails = {
        v: INF if is_inf(tree.tails[v]) else small_fraction(rng)
        for v in tree.end_leaves
    }
    return MeasureState(tree, blocks, tails)


def random_region(rng: Random, tree: BalloonTree, p: float = 0.4) -> frozenset:
    return frozenset(v for v in tree.nodes if rng.random() < p)


def random_valid_charge(
    rng: Random, tree: BalloonTree, mu: Optional[MeasureState] = None
) -> EndCharge:
    """Admissible charge: supported on infinite tails, summing to zero."""
    mu = mu if mu is not None else base_state(tree)
    infinite = [v for v in tree.end_leaves if is_inf(mu.tails[v])]
    if len(infinite) < 2:
        return EndCharge(tree, {})
    values = {}
    acc = Fraction(0)
    for v in infinite[:-1]:
        x = small_fraction(rng) - small_fraction(rng)
        values[v] = x
        acc += x
    values[infinite[-1]] = -acc
    return EndCharge(tree, values)


def _connected_block_patch(rng: Random, tree: BalloonTree) -> frozenset:
    blocks = list(tree.block_nodes)
    seed = rng.choice(blocks)
    patch = {seed}
    for _ in range(rng.randint(0, 4)):
        grow = []
        for v in sorted(patch):
            p = tree.parent.get(v)
            if p is not None and p not in patch and not tree.is_end_leaf(p):
                grow.append(p)
            for c in tree.child_map(v):
                if c not in patch and not tree.is_end_leaf(c):
                    grow.append(c)
        if not grow:
            break
        patch.add(rng.choice(grow))
    return frozenset(patch)


def _random_shuffle_move(
    rng: Random, tree: BalloonTree, runner: _Runner, avoid: frozenset
) -> Optional[Rearrange]:
    patch = _connected_block_patch(rng, tree)
    patch = frozenset(v for v in patch if v not in avoid)
    if len(patch) < 2 or tree.top(patch) is None:
        return None
    total = sum((runner.blocks[v] for v in patch), Fraction(0))
    order = sorted(patch)
    weights = {v: rng.randint(1, 6) for v in order}
    wsum = sum(weights.values())
    masses = {}
    acc = Fraction(0)
    for v in order[:-1]:
        masses[v] = total * weights[v] / wsum
        acc += masses[v]
    masses[order[-1]] = total - acc
    if any(m <= 0 for m in masses.values()):
        return None
    return Rearrange(patch, masses)


def random_preserving_word(
    rng: Random,
    tree: BalloonTree,
    mu: Optional[MeasureState] = None,
    transfers: int = 3,
    shuffles: int = 2,
    avoid: frozenset = frozenset(),
) -> MoveWord:
    """Measure-preserving word: conjugate tail-to-tail transfers by
    shuffles that are undone afterwards.  ``avoid`` excludes nodes from
    shuffle supports and transfer routes (used for liftable words)."""
    mu = mu if mu is not None else base_state(tree)
    runner = _Runner(mu)
    moves: List = []
    undo: List[Rearrange] = []
    for _ in range(shuffles):
        mv = _random_shuffle_move(rng, tree, runner, avoid)
        if mv is None:
            continue
        undo.append(Rearrange(mv.support, {v: runner.blocks[v] for v in mv.support}))
        runner.apply(mv)
        moves.append(mv)
    infinite = [
        v
        for v in tree.end_leaves
        if is_inf(mu.tails[v])
        and not (set(tree.path(tree.root, v)) & avoid)
    ]
    for _ in range(transfers):
        if len(infinite) < 2:
            break
        src, dst = rng.sample(infinite, 2)
        if set(tree.path(src, dst)) & avoid:
            continue
        for mv in route(tree, src, dst, small_fraction(rng)):
            runner.apply(mv)
            moves.append(mv)
    for mv in reversed(undo):
        runner.apply(mv)
        moves.append(mv)
    return MoveWord(tree, mu, tuple(moves))


def refine_ends(rng: Random, tree: BalloonTree, levels: int = 2) -> BalloonTree:
    """Refinement pushing every End leaf ``levels`` deeper: new blocks are
    carved out of each tail, leaf ids and tail kinds are preserved."""
    children = {v: list(tree.child_map(v)) for v in tree.nodes}
    weights = dict(tree.weights)
    tails = dict(tree.tails)
    closed = set(tree.closed)
    counter = [0]
    for leaf in tree.end_leaves:
        parent = tree.parent[leaf]
        chain = []
        tail = tree.tails[leaf]
        if is_inf(tail):
            parts = [small_fraction(rng) for _ in range(levels)]
            new_tail: ExtMass = INF
        else:
            cut = tail / (levels + 1)
            parts = [cut] * levels
            new_tail = tail - cut * levels
        for _ in range(levels):
            counter[0] += 1
            chain.append(f"{leaf}x{counter[0]}")
        kids = children[parent]
        kids[kids.index(leaf)] = chain[0]
        for a, b in zip(chain, chain[1:] + [leaf]):
            children[a] = [b]
        for node, part in zip(chain, parts):
            weights[node] = part
        tails[leaf] = new_tail
    return BalloonTree(
        root=tree.root,
        children={v: tuple(c) for v, c in children.items()},
        weights=weights,
        tails=tails,
        closed=frozenset(closed),
    )


def random_morphism(rng: Random, max_depth: int = 3) -> TreeMorphism:
    """Morphism whose source expands some target blocks into collapsed
    clusters (chains with closed appendages hanging off the entry node)."""
    target = random_tree(rng, max_depth=max_depth, max_nodes=14)
    children = {v: list(target.child_map(v)) for v in target.nodes}
    weights = {}
    tails = dict(target.tails)
    node_map = {}
    counter = [0]
    for v in target.nodes:
        node_map[v] = v
        if target.is_end_leaf(v):
            continue
        w = target.weights[v]
        if rng.random() < 0.35:
            # expand into entry node + a closed appendage (and maybe a
            # chain below it); original children stay on the entry node
            extra = rng.randint(1, 2)
            parts = []
            rest = w
            for _ in range(extra):
                cut = rest * Fraction(1, rng.randint(2, 4))
                parts.append(cut)
                rest -= cut
            weights[v] = rest
            prev = v
            for p in parts:
                counter[0] += 1
                nid = f"{v}z{counter[0]}"
                weights[nid] = p
                node_map[nid] = v
                children.setdefault(prev, []).append(nid)
                children[nid] = []
                if rng.random() < 0.5:
                    prev = nid
        else:
            weights[v] = w
    # an appendage may have received a child and an expanded Closed leaf
    # now has its appendages, so only childless non-root blocks are Closed
    source = BalloonTree(
        root=target.root,
        children={v: tuple(c) for v, c in children.items()},
        weights=weights,
        tails=tails,
        closed=frozenset(
            v for v in weights if v != target.root and not children[v]
        ),
    )
    return TreeMorphism(source, target, node_map)


def random_star(rng: Random, max_rays: int = 4, max_depth: int = 3) -> RayStar:
    rays = rng.randint(2, max_rays)
    depth = rng.randint(1, max_depth)
    cells = tuple(
        tuple(small_fraction(rng) for _ in range(depth)) for _ in range(rays)
    )
    tails: List[ExtMass] = []
    n_inf = max(2, rng.randint(2, rays))
    inf_rays = set(rng.sample(range(rays), min(n_inf, rays)))
    for i in range(rays):
        tails.append(INF if i in inf_rays else small_fraction(rng))
    return RayStar(small_fraction(rng, 9, 2), cells, tuple(tails))
