"""Tree morphisms induced by proper maps: collapse compact subtrees,
carry ends bijectively.

A morphism sends source nodes onto target nodes so that edges map to
edges or collapse inside a fiber, End leaves correspond one to one, and
every multi-node fiber is a connected set of blocks.  Measures push
forward by fiber sums, charges relabel along the end bijection, and
words relabel edgewise; the end charge of a pushed word equals the
pushed charge of the word (the commuting square checked by
:func:`check_diagram`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Tuple

from .charge import EndCharge
from .errors import NotLiftableError, TreeMismatchError
from .measure import MeasureState
from .section import Exhaustion, build_section
from .transport import (
    BalloonMove,
    MoveWord,
    Rearrange,
    _Runner,
    charge_of_word,
)
from .tree import BalloonTree


@dataclass(frozen=True, eq=False)
class TreeMorphism:
    """Node map from a source balloon tree onto a target one."""

    source: BalloonTree
    target: BalloonTree
    node_map: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "node_map", dict(self.node_map))

    @cached_property
    def fibers(self) -> Mapping[str, frozenset]:
        out: dict = {}
        for s, t in self.node_map.items():
            out.setdefault(t, set())
            out[t].add(s)
        return {t: frozenset(vs) for t, vs in out.items()}

    @cached_property
    def collapsed(self) -> Tuple[frozenset, ...]:
        """Multi-node fibers, the subtrees squashed onto single targets."""
        return tuple(
            f for _, f in sorted(self.fibers.items()) if len(f) > 1
        )

    @cached_property
    def collapsed_nodes(self) -> frozenset:
        out = set()
        for f in self.collapsed:
            out |= f
        return frozenset(out)

    @cached_property
    def end_bijection(self) -> Mapping[str, str]:
        return {v: self.node_map[v] for v in self.source.end_leaves}

    @cached_property
    def end_inverse(self) -> Mapping[str, str]:
        return {t: s for s, t in self.end_bijection.items()}

    def validate(self) -> list:
        out = []
        s, t, m = self.source, self.target, self.node_map
        if set(m) != s.node_set:
            out.append("node map does not cover exactly the source nodes")
            return out
        image = set(m.values())
        if image != t.node_set:
            out.append("node map is not onto the target nodes")
        if m.get(s.root) != t.root:
            out.append("root does not map to the target root")
        for (p, c) in s.edges:
            mp, mc = m[p], m[c]
            if mp == mc:
                continue
            if t.parent.get(mc) != mp:
                out.append(f"edge {(p, c)!r} maps to a non-edge {(mp, mc)!r}")
        ends_s = list(s.end_leaves)
        mapped = [m[v] for v in ends_s]
        if len(set(mapped)) != len(mapped) or set(mapped) != t.end_leaf_set:
            out.append("End leaves do not biject onto target End leaves")
        else:
            for v in ends_s:
                if s.tails[v] != t.tails[m[v]]:
                    out.append(f"tail mass changes across {v!r} -> {m[v]!r}")
        for tgt, fiber in sorted(self.fibers.items()):
            if len(fiber) == 1:
                continue
            if any(v in s.tails for v in fiber):
                out.append(f"collapsed fiber of {tgt!r} contains an End leaf")
            if tgt in t.tails:
                out.append(f"End leaf {tgt!r} has a multi-node fiber")
            if s.top(fiber) is None:
                out.append(f"fiber of {tgt!r} is not connected")
        return out


def identity_morphism(t: BalloonTree) -> TreeMorphism:
    return TreeMorphism(t, t, {v: v for v in t.nodes})


def compose(outer: TreeMorphism, inner: TreeMorphism) -> TreeMorphism:
    if inner.target != outer.source:
        raise TreeMismatchError("morphisms do not compose")
    return TreeMorphism(
        inner.source,
        outer.target,
        {v: outer.node_map[inner.node_map[v]] for v in inner.source.nodes},
    )


def push_measure(pi: TreeMorphism, mu: MeasureState) -> MeasureState:
    """Fiber sums for blocks, relabelled tails for ends."""
    if mu.tree != pi.source:
        raise TreeMismatchError("state lives on a different tree")
    blocks = {}
    for tgt in pi.target.block_nodes:
        blocks[tgt] = sum(
            (mu.blocks[v] for v in pi.fibers[tgt]), Fraction(0)
        )
    tails = {
        pi.end_bijection[v]: mu.tails[v] for v in pi.source.end_leaves
    }
    return MeasureState(pi.target, blocks, tails)


def pull_measure(pi: TreeMorphism, nu: MeasureState) -> MeasureState:
    """Right inverse of push_measure: split each target block over its
    fiber in proportion to the source tree's declared weights."""
    if nu.tree != pi.target:
        raise TreeMismatchError("state lives on a different tree")
    blocks = {}
    for tgt in pi.target.block_nodes:
        fiber = pi.fibers[tgt]
        total = sum((pi.source.weights[v] for v in fiber), Fraction(0))
        for v in fiber:
            blocks[v] = nu.blocks[tgt] * pi.source.weights[v] / total
    tails = {
        pi.end_inverse[t]: nu.tails[t] for t in pi.target.end_leaves
    }
    return MeasureState(pi.source, blocks, tails)


def push_charge(pi: TreeMorphism, a: EndCharge) -> EndCharge:
    if a.tree != pi.source:
        raise TreeMismatchError("charge lives on a different tree")
    return EndCharge(
        pi.target,
        {pi.end_bijection[v]: a.values[v] for v in pi.source.end_leaves},
    )


def pull_charge(pi: TreeMorphism, a: EndCharge) -> EndCharge:
    if a.tree != pi.target:
        raise TreeMismatchError("charge lives on a different tree")
    return EndCharge(
        pi.source,
        {pi.end_inverse[t]: a.values[t] for t in pi.target.end_leaves},
    )


def _push_moves(pi: TreeMorphism, word: MoveWord, skip_collapsed: bool):
    """Map moves edgewise; a source-side runner supplies the masses that
    collapsed fiber-mates contribute to pushed rearrangements."""
    runner = _Runner(word.base)
    out = []
    for mv in word.moves:
        if isinstance(mv, BalloonMove):
            p, c = mv.edge
            mp, mc = pi.node_map[p], pi.node_map[c]
            if mp == mc:
                if not skip_collapsed:
                    raise NotLiftableError(
                        f"move crosses edge {mv.edge!r} inside a collapsed fiber"
                    )
            else:
                out.append(BalloonMove((mp, mc), mv.amount))
        else:
            mapped = frozenset(pi.node_map[v] for v in mv.support)
            if len(mapped) == 1:
                if not skip_collapsed:
                    raise NotLiftableError(
                        "rearrangement supported inside a collapsed fiber"
                    )
            else:
                masses = {}
                for tgt in mapped:
                    tot = Fraction(0)
                    for v in pi.fibers[tgt]:
                        if v in mv.support:
                            tot += mv.masses[v]
                        else:
                            tot += runner.blocks[v]
                    masses[tgt] = tot
                out.append(Rearrange(mapped, masses))
        runner.apply(mv)
    return out


def push_word(pi: TreeMorphism, word: MoveWord) -> MoveWord:
    """Relabel a word along the morphism.

    Raises NotLiftableError if any move acts inside a collapsed fiber
    (such a move is invisible on the target, so no target word tracks it
    faithfully move for move).
    """
    if word.tree != pi.source:
        raise TreeMismatchError("word lives on a different tree")
    moves = _push_moves(pi, word, skip_collapsed=False)
    return MoveWord(pi.target, push_measure(pi, word.base), tuple(moves))


def check_diagram(pi: TreeMorphism, mu: MeasureState, word: MoveWord) -> bool:
    """Pushing the word then taking its charge agrees with taking the
    charge then pushing it."""
    if word.base != mu:
        raise TreeMismatchError("word is not based at the given measure")
    pushed = push_word(pi, word)
    lhs = charge_of_word(pushed)
    rhs = push_charge(pi, charge_of_word(word))
    return lhs == rhs


def lift_section(
    pi: TreeMorphism,
    mu_target: MeasureState,
    a_target: EndCharge,
    exhaustion: Optional[Exhaustion] = None,
) -> MoveWord:
    """Build the section upstairs and push it down.

    The measure and charge pull back along the end bijection (blocks split
    weight-proportionally over fibers); the section word built on the
    source may shuffle mass inside collapsed fibers, and those moves are
    dropped on the way down since they act trivially on the target.
    """
    mu_src = pull_measure(pi, mu_target)
    a_src = pull_charge(pi, a_target)
    word_src = build_section(pi.source, mu_src, a_src, exhaustion)
    moves = _push_moves(pi, word_src, skip_collapsed=True)
    return MoveWord(pi.target, mu_target, tuple(moves))
