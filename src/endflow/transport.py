"""Mass-transport words and their flux accounting.

A word is a finite composition of two generator moves acting on a measure
state:

* ``BalloonMove`` transfers an amount across a single tree edge (into the
  tail when the child is an End leaf; negative amounts reverse direction).
* ``Rearrange`` replaces the masses on a connected set of block nodes,
  conserving their total.  It models an arbitrary compactly supported
  measure-preserving shuffle, so only its block-level effect is recorded.

A ``FluxField`` tracks, per edge, the cumulative net mass moved from the
parent side into the subtree below.  For a measure-preserving word the
flux on the edge into each End leaf is the net mass sent toward that end;
collecting these leaf values yields the word's end charge.  A
``Rearrange`` adds to each edge inside its support the subtree sum of its
mass changes (:meth:`BalloonTree.sums_below`), the same Kirchhoff sum
that forces the flux of a charge.  Two words are considered equal
extensionally: same final state and same flux field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Mapping, Tuple, Union

from .charge import EndCharge
from .errors import (
    BadSupportError,
    ChargeUndefinedError,
    MassNotConservedError,
    NonPositiveBlockError,
    TreeMismatchError,
)
from .extmath import as_frac, is_inf
from .measure import MeasureState
from .tree import BalloonTree, Edge, frontier_edges


@dataclass(frozen=True)
class BalloonMove:
    """Transfer ``amount`` from the parent block across ``edge``."""

    edge: Edge
    amount: Fraction

    def __post_init__(self):
        object.__setattr__(self, "edge", (self.edge[0], self.edge[1]))
        object.__setattr__(self, "amount", as_frac(self.amount))


@dataclass(frozen=True)
class Rearrange:
    """Replace masses on a connected block support, conserving their sum."""

    support: frozenset
    masses: Mapping[str, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "support", frozenset(self.support))
        object.__setattr__(
            self, "masses", {k: as_frac(v) for k, v in self.masses.items()}
        )


Move = Union[BalloonMove, Rearrange]


@dataclass(frozen=True)
class MoveWord:
    """Ordered moves applied left to right from a base state."""

    tree: BalloonTree
    base: MeasureState
    moves: Tuple[Move, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "moves", tuple(self.moves))
        if self.base.tree != self.tree:
            raise TreeMismatchError("base state belongs to a different tree")

    def __len__(self):
        return len(self.moves)


@dataclass(frozen=True)
class FluxField:
    """Cumulative net transfer per edge, parent side into child side."""

    tree: BalloonTree
    flux: Mapping[Edge, Fraction]

    def __post_init__(self):
        full = {e: Fraction(0) for e in self.tree.edges}
        for e, v in self.flux.items():
            if e not in full:
                raise TreeMismatchError(f"flux on unknown edge {e!r}")
            full[e] = as_frac(v)
        object.__setattr__(self, "flux", full)

    def __getitem__(self, edge: Edge) -> Fraction:
        return self.flux[edge]

    def divergence(self, node: str) -> Fraction:
        """Net inflow minus outflow at a block node (zero under Kirchhoff)."""
        t = self.tree
        total = Fraction(0)
        p = t.parent.get(node)
        if p is not None:
            total += self.flux[(p, node)]
        for c in t.child_map(node):
            total -= self.flux[(node, c)]
        return total


def empty_word(mu: MeasureState) -> MoveWord:
    return MoveWord(mu.tree, mu, ())


class _Runner:
    """Mutable evaluation state shared by the appliers and the scheduler."""

    __slots__ = ("tree", "blocks", "tails", "flux")

    def __init__(self, mu: MeasureState):
        self.tree = mu.tree
        self.blocks = dict(mu.blocks)
        self.tails = dict(mu.tails)
        self.flux = {e: Fraction(0) for e in mu.tree.edges}

    # node mass with infinity passthrough
    def node_mass(self, v: str):
        if v in self.tails:
            return self.tails[v]
        return self.blocks[v]

    def state(self) -> MeasureState:
        return MeasureState(self.tree, dict(self.blocks), dict(self.tails))

    def flux_field(self) -> FluxField:
        return FluxField(self.tree, dict(self.flux))

    def apply(self, move: Move):
        """Check and apply one move; a rearrangement returns the masses
        it replaced."""
        if isinstance(move, BalloonMove):
            self._apply_balloon(move)
        elif isinstance(move, Rearrange):
            return self._apply_rearrange(move)
        else:
            raise TypeError(f"unknown move {move!r}")

    def _apply_balloon(self, move: BalloonMove):
        p, c = move.edge
        d = move.amount
        if (p, c) not in self.flux:
            raise TreeMismatchError(f"no edge {move.edge!r} in the tree")
        if p in self.tails:
            raise BadSupportError(f"parent {p!r} is a tail")
        new_p = self.blocks[p] - d
        if new_p <= 0:
            raise NonPositiveBlockError(
                f"block {p!r} would drop to {new_p} "
                f"moving {d} across {move.edge!r}"
            )
        if c in self.tails:
            m = self.tails[c]
            if is_inf(m):
                new_c = m
            else:
                new_c = m + d
                if new_c <= 0:
                    raise NonPositiveBlockError(
                        f"tail {c!r} would drop to {new_c} "
                        f"moving {d} across {move.edge!r}"
                    )
            self.tails[c] = new_c
        else:
            new_c = self.blocks[c] + d
            if new_c <= 0:
                raise NonPositiveBlockError(
                    f"block {c!r} would drop to {new_c} "
                    f"moving {d} across {move.edge!r}"
                )
            self.blocks[c] = new_c
        self.blocks[p] = new_p
        self.flux[(p, c)] += d

    def _apply_rearrange(self, move: Rearrange):
        top = _check_rearrange(self.tree, self, move.support, move.masses)
        old = {v: self.blocks[v] for v in move.support}
        delta = {v: move.masses[v] - old[v] for v in move.support}
        # Kirchhoff-consistent attribution: each edge picks up the total
        # mass change below it, zero outside the mass-conserving support.
        below = self.tree.sums_below(delta, move.support)
        for v in move.support:
            if v != top:
                self.flux[(self.tree.parent[v], v)] += below[v]
            self.blocks[v] = move.masses[v]
        return old


def _check_rearrange(tree: BalloonTree, state, support, masses) -> str:
    """Check a rearrangement of ``state``; return the support's top node."""
    if not support:
        raise BadSupportError("empty rearrangement support")
    if set(masses) != set(support):
        raise BadSupportError("masses must cover exactly the support")
    for v in support:
        if v in state.tails:
            raise BadSupportError(f"support touches tail {v!r}")
        if v not in state.blocks:
            raise BadSupportError(f"support node {v!r} not in tree")
    top = tree.top(support)
    if top is None:
        raise BadSupportError("support is not connected")
    for v, m in masses.items():
        if m <= 0:
            raise NonPositiveBlockError(f"rearranged mass at {v!r} is {m}")
    old_total = sum((state.blocks[v] for v in support), Fraction(0))
    new_total = sum(masses.values(), Fraction(0))
    if old_total != new_total:
        raise MassNotConservedError(
            f"support mass {old_total} != rearranged mass {new_total}"
        )
    return top


def apply_move(
    mu: MeasureState, flux: FluxField, move: Move
) -> Tuple[MeasureState, FluxField]:
    """Apply one move to a state and flux field, returning new values."""
    r = _Runner(mu)
    r.flux = dict(flux.flux)
    r.apply(move)
    return r.state(), r.flux_field()


def _replay(word: MoveWord) -> _Runner:
    """A runner left at the word's final state and flux.

    Errors raised by a move carry the failing index in ``move_index``.
    """
    r = _Runner(word.base)
    for i, m in enumerate(word.moves):
        try:
            r.apply(m)
        except Exception as e:
            e.move_index = i
            raise
    return r


def apply_word(word: MoveWord) -> Tuple[MeasureState, FluxField]:
    """Left fold of the moves from the base state and zero flux.

    Errors raised by a move carry the failing index in ``move_index``.
    """
    r = _replay(word)
    return r.state(), r.flux_field()


def _preserves(word: MoveWord, r: _Runner) -> bool:
    """The runner, left at the word's end, holds the base blocks and no
    net flux has entered any finite tail."""
    t = word.tree
    return r.blocks == word.base.blocks and all(
        is_inf(word.base.tails[v]) or r.flux[t.leaf_edge(v)] == 0
        for v in t.end_leaves
    )


def is_measure_preserving(word: MoveWord) -> bool:
    """Final blocks equal the base blocks and no net flux enters any
    finite tail."""
    return _preserves(word, _replay(word))


def charge_of_word(word: MoveWord) -> EndCharge:
    """End charge of a measure-preserving word: its leaf-edge fluxes."""
    r = _replay(word)
    if not _preserves(word, r):
        raise ChargeUndefinedError(
            "word does not preserve its base measure; charge undefined"
        )
    t = word.tree
    return EndCharge(t, {v: r.flux[t.leaf_edge(v)] for v in t.end_leaves})


def concat(w1: MoveWord, w2: MoveWord) -> MoveWord:
    if w1.tree != w2.tree:
        raise TreeMismatchError("words live on different trees")
    return MoveWord(w1.tree, w1.base, w1.moves + w2.moves)


def invert_word(word: MoveWord) -> MoveWord:
    """Reverse the moves: amounts negate, rearrangements restore the
    masses recorded just before they were applied.  The inverse is based
    at the word's final state, so ``concat(w, invert_word(w))`` returns
    to the base with zero flux."""
    r = _Runner(word.base)
    inv: List[Move] = []
    for m in word.moves:
        replaced = r.apply(m)
        if isinstance(m, Rearrange):
            inv.append(Rearrange(m.support, replaced))
        else:
            inv.append(BalloonMove(m.edge, -m.amount))
    return MoveWord(word.tree, r.state(), tuple(reversed(inv)))


def region_transfer(word: MoveWord, region: Iterable[str]) -> Fraction:
    """Net mass the word moves into a region: signed flux over its
    frontier edges, oriented inward."""
    flux = _replay(word).flux
    total = Fraction(0)
    for (e, sign) in frontier_edges(word.tree, region):
        total += sign * flux[e]
    return total


def extensionally_equal(w1: MoveWord, w2: MoveWord) -> bool:
    """Same tree, base, final state and flux field."""
    if w1.tree != w2.tree or w1.base != w2.base:
        return False
    s1, f1 = apply_word(w1)
    s2, f2 = apply_word(w2)
    return s1 == s2 and f1 == f2


def route(
    tree: BalloonTree, src: str, dst: str, amount: Fraction
) -> List[BalloonMove]:
    """Edge moves carrying ``amount`` from ``src`` to ``dst`` along the
    tree path.  Every intermediate stop receives before it sends, so the
    moves keep positivity whenever the source can spare the amount."""
    path = tree.path(src, dst)
    return [
        BalloonMove((a, b), amount)
        if tree.parent.get(b) == a
        else BalloonMove((b, a), -amount)
        for a, b in zip(path, path[1:])
    ]


def rearrange_to_moves(
    tree: BalloonTree,
    state,
    support: Iterable[str],
    new_masses: Mapping[str, Fraction],
) -> List[BalloonMove]:
    """Decompose a rearrangement of ``state`` (a measure state or a runner)
    into edge moves with the same flux effect.

    The runner's checks run first.  Surpluses are routed to the support's
    top node, then deficits are served from there; every intermediate stop
    receives before it sends, so positivity never breaks.
    """
    sup = frozenset(support)
    new = {v: as_frac(m) for v, m in new_masses.items()}
    anchor = _check_rearrange(tree, state, sup, new)
    cur = {v: state.blocks[v] for v in sup}
    # a node sends its surplus or receives its deficit, never both, so the
    # starting masses settle both passes
    order = sorted(sup - {anchor}, key=tree.preorder_index.__getitem__)
    moves: List[BalloonMove] = []
    for v in order:
        if cur[v] > new[v]:
            moves += route(tree, v, anchor, cur[v] - new[v])
    for v in order:
        if new[v] > cur[v]:
            moves += route(tree, anchor, v, new[v] - cur[v])
    return moves
