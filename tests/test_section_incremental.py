"""build_section against a recorded digest and against align_step.

The golden digest pins the exact bytes of the serialized sections on a
seeded corpus, so a change to how the section is computed that alters a
single move shows here.  The differential test rebuilds each section
level by level through the public ``align_step`` (which replays both
words from the base measure) and requires the same moves.  The last tests
hold the section's level-to-level carry to the whole-cut computations it
replaces: the lazily drawn donors, and the agreement check, which compares
only blocks of the inner cut and must still catch a disturbed one.
"""

import hashlib
import json
from fractions import Fraction
from random import Random

import pytest

from endflow import section
from endflow.charge import scale_charge
from endflow.errors import AlignPreconditionError
from endflow.extmath import INF, is_inf
from endflow.gen import random_state, random_tree, random_valid_charge, small_fraction
from endflow.measure import base_state
from endflow.raystar import RayStar
from endflow.section import Exhaustion, align_step, build_section
from endflow.serialize import word_to_json
from endflow.transport import (
    BalloonMove,
    Rearrange,
    _Runner,
    concat,
    empty_word,
    invert_word,
)

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


def _exhaustion_corpus():
    """Seeded random trees, each with its default exhaustion and with
    depth cuts at a random subset of its depths."""
    rng = Random("section-carry")
    for _ in range(24):
        tree = random_tree(
            rng, max_depth=rng.randint(2, 6), max_nodes=rng.choice([16, 32, 64])
        )
        mu = base_state(tree) if rng.random() < 0.5 else random_state(rng, tree)
        a = random_valid_charge(rng, tree, mu)
        top = max(tree.depth[v] for v in tree.block_nodes) + 1
        depths = sorted(rng.sample(range(1, top), rng.randint(0, top - 1)))
        yield tree, mu, a, Exhaustion.default(tree)
        yield tree, mu, a, Exhaustion.from_depths(tree, depths + [top])


def _sorted_donors(tree, runner, donors, dest):
    """The donor order as one breadth-first pass and one sort over the
    whole donor set: blocks, then finite tails, then infinite tails, each
    by distance from ``dest`` and then preorder."""
    index = tree.preorder_index
    inside = set(donors)
    dist = {dest: 0}
    frontier = [dest]
    while frontier:
        nxt = []
        for u in frontier:
            for w in (tree.parent.get(u), *tree.child_map(u)):
                if w in inside and w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt

    def key(v):
        if v in runner.tails:
            kind = 2 if is_inf(runner.tails[v]) else 1
        else:
            kind = 0
        return (kind, dist[v], index[v])

    return sorted(donors, key=key)


def _random_donors(rng, tree):
    """A destination and a donor set that, with it, is connected."""
    dest = rng.choice(tree.nodes)
    donors, grow = set(), [dest]
    while grow:
        u = grow.pop(rng.randrange(len(grow)))
        for w in (tree.parent.get(u), *tree.child_map(u)):
            if w is not None and w != dest and w not in donors and rng.random() < 0.7:
                donors.add(w)
                grow.append(w)
    return frozenset(donors), dest


def test_lazy_donor_order_matches_the_full_sort(monkeypatch):
    rng = Random("donor-order")
    real = section._donor_order
    seen = []

    def checked(tree, runner, donors, dest):
        order = list(real(tree, runner, donors, dest))
        assert order == _sorted_donors(tree, runner, donors, dest)
        seen.append(len(order))
        return iter(order)

    monkeypatch.setattr(section, "_donor_order", checked)
    for tree, mu, a, ex in _exhaustion_corpus():
        build_section(tree, mu, a, ex)
        runner = _Runner(mu)
        for _ in range(4):
            donors, dest = _random_donors(rng, tree)
            assert list(real(tree, runner, donors, dest)) == _sorted_donors(
                tree, runner, donors, dest
            )
    assert len(seen) > 100 and max(seen) > 10


def test_carried_check_lies_in_the_inner_cut(monkeypatch):
    real = section._align
    calls = []

    def checked(tree, inner, outer, check, *rest):
        assert check <= inner
        nxt = real(tree, inner, outer, check, *rest)
        assert nxt <= outer
        calls.append((len(check), len(inner)))
        return nxt

    monkeypatch.setattr(section, "_align", checked)
    for tree, mu, a, ex in _exhaustion_corpus():
        build_section(tree, mu, a, ex)
    assert len(calls) > 100 and max(c for c, _ in calls) > 4
    # the carry compares fewer blocks than the whole inner cut somewhere
    assert any(c < n for c, n in calls)


def _touched(moves):
    out = set()
    for mv in moves:
        out.update(mv.support if isinstance(mv, Rearrange) else mv.edge)
    return out


@pytest.mark.parametrize("which", ["touched", "added"])
def test_disturbed_inner_block_is_caught(monkeypatch, which):
    """Before one level, one block of its inner cut is disturbed: a block
    the previous level's moves touched, or one that level added to the
    cut without touching it.  The agreement check must name it."""
    real = section._align
    last = {"added": frozenset(), "touched": set()}
    picked = []

    def disturbing(tree, inner, outer, check, runner, *rest):
        if not picked:
            if which == "touched":
                pick = last["touched"] & inner
            else:
                pick = last["added"] - last["touched"]
            if pick:
                v = min(pick)
                runner.blocks[v] += 1
                picked.append(v)
        out_moves = rest[-1]
        first = len(out_moves)
        result = real(tree, inner, outer, check, runner, *rest)
        last["added"] = outer - inner
        last["touched"] = _touched(out_moves[first:])
        return result

    monkeypatch.setattr(section, "_align", disturbing)
    for tree, mu, a, ex in _exhaustion_corpus():
        last.update(added=frozenset(), touched=set())
        try:
            build_section(tree, mu, a, ex)
        except AlignPreconditionError as err:
            assert picked and str(err) == (
                f"states disagree on inner cut at {picked[0]!r}"
            )
            return
        assert not picked
    pytest.fail(f"no level had a {which} block to disturb")


def test_stray_move_inside_the_inner_cut_is_caught(monkeypatch):
    """A level whose moves reach into its own inner cut, which the
    construction never does, leaves the states disagreeing on blocks the
    next level did not add; its agreement check must still name one."""
    real_align, real_transfer = section._align, section._transfer
    inner_cut = []
    stray = []

    def align(tree, inner, *rest):
        inner_cut[:] = [inner]
        return real_align(tree, inner, *rest)

    def transfer(tree, runner, out_moves, donors, dest, amount):
        real_transfer(tree, runner, out_moves, donors, dest, amount)
        inside = [(p, c) for p, c in tree.edges if {p, c} <= inner_cut[0]]
        if inside and not stray:
            p, c = inside[0]
            mv = BalloonMove((p, c), runner.blocks[p] / 2)
            runner.apply(mv)
            out_moves.append(mv)
            stray.append((p, c))

    monkeypatch.setattr(section, "_align", align)
    monkeypatch.setattr(section, "_transfer", transfer)
    for tree, mu, a, ex in _exhaustion_corpus():
        try:
            build_section(tree, mu, a, ex)
        except AlignPreconditionError as err:
            assert stray and str(err) in {
                f"states disagree on inner cut at {v!r}" for v in stray[0]
            }
            return
        assert not stray
    pytest.fail("no level moved mass inside its inner cut")
