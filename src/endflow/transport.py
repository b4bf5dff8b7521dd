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

A given word is walked one way, :func:`_walk`, from its base, naming a
failing move by its index.  The walk runs on exact integers:
:func:`_word_unit` gives the lcm U of the denominators the word holds,
and the runner counts masses and fluxes in units of 1/U, making a
``Fraction`` only for what it hands back.  Only the section's runners,
whose moves are not known before they run, keep ``Fraction`` values (see
:class:`_Runner`).  Every complete walk of a word keeps its end on the
word, where every later reader finds it.  A walk's runner keeps the
block masses it started from, read in once, so :func:`_preserves` compares
the end's blocks with them and reads no base mass again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Mapping, Optional, Tuple, Union

from .charge import EndCharge
from .errors import (
    BadSupportError,
    ChargeUndefinedError,
    MassNotConservedError,
    NonPositiveBlockError,
    TreeMismatchError,
)
from .extmath import ExtMass, as_frac, is_inf
from .measure import MeasureState
from .tree import _ZERO, BalloonTree, Edge, frontier_edges


@dataclass(frozen=True)
class BalloonMove:
    """Transfer ``amount`` from the parent block across ``edge``."""

    edge: Edge
    amount: Fraction

    def __post_init__(self):
        # a 2-tuple and a Fraction, the common case, pass one exact-type
        # test and are kept as handed in
        edge = self.edge
        if (
            type(edge) is tuple
            and len(edge) == 2
            and type(self.amount) is Fraction
        ):
            return
        if not isinstance(edge, (tuple, list)) or len(edge) != 2:
            raise ValueError(f"balloon move edge {edge!r}: need two node ids")
        if type(edge) is not tuple:
            object.__setattr__(self, "edge", tuple(edge))
        if not isinstance(self.amount, Fraction):
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
        full = dict.fromkeys(self.tree.edges, _ZERO)
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
    """Mutable evaluation state shared by the appliers and the scheduler.

    A runner built with a ``unit`` U keeps its block masses, finite tail
    masses and fluxes as Python ints counting units 1/U; U must make every
    amount it will meet a whole number of units, which
    :func:`_word_unit` guarantees for the replay of a given word.  Each
    amount is read in once (:meth:`_in`), and a Fraction is made only on
    the way out (:meth:`_out`): the state, the flux field, the node masses
    and error texts.  A runner without a unit keeps Fractions; only the
    section's runners are built so, since the moves they schedule are not
    known before they run.  The checks are the same code on either kind.
    The block masses it starts from are kept, read in, as ``start``.
    """

    __slots__ = ("tree", "unit", "start", "blocks", "tails", "flux")

    def __init__(self, mu: MeasureState, unit: Optional[int] = None):
        self.tree = mu.tree
        self.unit = unit
        self.start = self._in_all(mu.blocks)
        self.blocks = dict(self.start)
        self.tails = self._in_all(mu.tails)
        zero = Fraction(0) if unit is None else 0
        self.flux = dict.fromkeys(mu.tree.edges, zero)

    def _in(self, x: Fraction):
        """A rational in this runner's units: an int count of 1/unit, or x
        itself on a runner without a unit."""
        unit = self.unit
        if unit is None:
            return x
        den = x.denominator
        if unit % den:
            raise ValueError(f"{x} is not a whole number of units 1/{unit}")
        return x.numerator * (unit // den)

    def _out(self, x) -> Fraction:
        """A value in this runner's units as a Fraction."""
        return x if self.unit is None else Fraction(x, self.unit)

    def _in_all(self, values: Mapping) -> dict:
        """A copy of ``values`` in the runner's units; infinite tails pass
        through."""
        if self.unit is None:
            return dict(values)
        read = self._in
        return {k: x if is_inf(x) else read(x) for k, x in values.items()}

    def _out_all(self, values: Mapping) -> dict:
        """A copy of ``values`` as Fractions; infinite tails pass through."""
        unit = self.unit
        if unit is None:
            return dict(values)
        return {
            k: x if is_inf(x) else Fraction(x, unit) for k, x in values.items()
        }

    # node mass with infinity passthrough
    def node_mass(self, v: str) -> ExtMass:
        if v in self.tails:
            m = self.tails[v]
            return m if is_inf(m) else self._out(m)
        return self._out(self.blocks[v])

    def state(self) -> MeasureState:
        return MeasureState(
            self.tree, self._out_all(self.blocks), self._out_all(self.tails)
        )

    def flux_field(self) -> FluxField:
        return FluxField(self.tree, self._out_all(self.flux))

    def apply(self, move: Move):
        """Check and apply one move; a balloon move returns its amount and
        a rearrangement the masses it replaced, in the runner's units."""
        # the exact type decides the common case in one test
        if type(move) is BalloonMove or isinstance(move, BalloonMove):
            return self._apply_balloon(move)
        elif isinstance(move, Rearrange):
            return self._apply_rearrange(move)
        else:
            raise TypeError(f"unknown move {move!r}")

    def _apply_balloon(self, move: BalloonMove):
        edge = move.edge
        if edge not in self.flux:
            raise TreeMismatchError(f"no edge {edge!r} in the tree")
        p, c = edge
        if p in self.tails:
            raise BadSupportError(f"parent {p!r} is a tail")
        d = self._in(move.amount)
        new_p = self.blocks[p] - d
        if new_p <= 0:
            self._refuse("block", p, new_p, move)
        if c in self.tails:
            m = self.tails[c]
            if is_inf(m):
                new_c = m
            else:
                new_c = m + d
                if new_c <= 0:
                    self._refuse("tail", c, new_c, move)
            self.tails[c] = new_c
        else:
            new_c = self.blocks[c] + d
            if new_c <= 0:
                self._refuse("block", c, new_c, move)
            self.blocks[c] = new_c
        self.blocks[p] = new_p
        self.flux[edge] += d
        return d

    def _refuse(self, kind: str, v: str, new, move: BalloonMove):
        raise NonPositiveBlockError(
            f"{kind} {v!r} would drop to {self._out(new)} "
            f"moving {move.amount} across {move.edge!r}"
        )

    def _apply_rearrange(self, move: Rearrange):
        read = self._in
        masses = {v: read(m) for v, m in move.masses.items()}
        top = self._check_rearrange(move.support, masses)
        old = {v: self.blocks[v] for v in move.support}
        delta = {v: masses[v] - old[v] for v in move.support}
        # Kirchhoff-consistent attribution: each edge picks up the total
        # mass change below it, zero outside the mass-conserving support.
        below = self.tree.sums_below(delta, move.support)
        for v in move.support:
            if v != top:
                self.flux[(self.tree.parent[v], v)] += below[v]
            self.blocks[v] = masses[v]
        return old

    def _check_rearrange(self, support, masses) -> str:
        """Check a rearrangement to ``masses`` (in the runner's units);
        return the support's top node."""
        if not support:
            raise BadSupportError("empty rearrangement support")
        if set(masses) != set(support):
            raise BadSupportError("masses must cover exactly the support")
        for v in support:
            if v in self.tails:
                raise BadSupportError(f"support touches tail {v!r}")
            if v not in self.blocks:
                raise BadSupportError(f"support node {v!r} not in tree")
        top = self.tree.top(support)
        if top is None:
            raise BadSupportError("support is not connected")
        for v, m in masses.items():
            if m <= 0:
                raise NonPositiveBlockError(
                    f"rearranged mass at {v!r} is {self._out(m)}"
                )
        old_total = sum(self.blocks[v] for v in support)
        new_total = sum(masses.values())
        if old_total != new_total:
            raise MassNotConservedError(
                f"support mass {self._out(old_total)} != rearranged mass "
                f"{self._out(new_total)}"
            )
        return top


def _word_unit(word: MoveWord) -> int:
    """The unit a replay of the word runs on: the least common multiple of
    the denominators of its base block masses, finite tail masses, balloon
    amounts and rearranged masses.  Every mass and flux a replay reaches
    is a sum of these, so a whole number of units."""
    base = word.base
    dens = {m.denominator for m in base.blocks.values()}
    dens.update(m.denominator for m in base.tails.values() if not is_inf(m))
    for mv in word.moves:
        if isinstance(mv, BalloonMove):
            dens.add(mv.amount.denominator)
        elif isinstance(mv, Rearrange):
            dens.update(m.denominator for m in mv.masses.values())
    return math.lcm(*dens)


def apply_move(
    mu: MeasureState, flux: FluxField, move: Move
) -> Tuple[MeasureState, FluxField]:
    """Apply one move to a state and flux field, returning new values: the
    one-move word's end, with ``flux`` added to its flux."""
    if flux.tree != mu.tree:
        raise TreeMismatchError("flux field belongs to a different tree")
    state, moved = apply_word(MoveWord(mu.tree, mu, (move,)))
    return state, FluxField(
        mu.tree, {e: x + moved[e] for e, x in flux.flux.items()}
    )


def _walk(word: MoveWord, unit: Optional[int] = None):
    """Walk the word from its base on a fresh runner on ``unit`` (the
    word's :func:`_word_unit` by default), yielding ``(runner, move,
    read)`` for each move in order, with what :meth:`_Runner.apply` read
    for it.  This is the one walk of a given word: an error raised by a
    move, or thrown back into the walk (``throw``) by a consumer the move
    failed in, carries its index in ``move_index``.  Once every move has
    been applied the runner is kept as the word's replay; a walk that
    raises or is abandoned keeps nothing.  A frozen dataclass leaves its
    instance dict writable, and the kept end is no field, so equality,
    hashing and ``repr`` do not see it."""
    runner = _Runner(word.base, unit or _word_unit(word))
    for i, move in enumerate(word.moves):
        try:
            read = runner.apply(move)
            yield runner, move, read
        except Exception as e:
            e.move_index = i
            raise
    vars(word)["_end"] = runner


def _replay(word: MoveWord) -> _Runner:
    """The runner at the word's end: the one its last complete walk kept,
    else a fresh walk's.  Its readers must not change it."""
    if "_end" not in vars(word):
        for _ in _walk(word):
            pass
    return vars(word)["_end"]


def apply_word(word: MoveWord) -> Tuple[MeasureState, FluxField]:
    """Left fold of the moves from the base state and zero flux.

    Errors raised by a move carry the failing index in ``move_index``.
    """
    r = _replay(word)
    return r.state(), r.flux_field()


def _preserves(word: MoveWord, r: _Runner) -> bool:
    """The runner, walked from the word's base to its end, holds the
    blocks it started from and no net flux has entered any finite tail."""
    t = word.tree
    return r.blocks == r.start and all(
        is_inf(word.base.tails[v]) or r.flux[t.leaf_edge(v)] == 0
        for v in t.end_leaves
    )


def is_measure_preserving(word: MoveWord) -> bool:
    """Final blocks equal the base blocks and no net flux enters any
    finite tail."""
    return _preserves(word, _replay(word))


def _require_preserving(word: MoveWord, r: _Runner) -> None:
    """Raise :class:`ChargeUndefinedError` unless the runner, left at the
    word's end, shows a measure-preserving word."""
    if not _preserves(word, r):
        raise ChargeUndefinedError(
            "word does not preserve its base measure; charge undefined"
        )


def charge_of_word(word: MoveWord) -> EndCharge:
    """End charge of a measure-preserving word: its leaf-edge fluxes."""
    r = _replay(word)
    _require_preserving(word, r)
    t = word.tree
    return EndCharge(
        t, {v: r._out(r.flux[t.leaf_edge(v)]) for v in t.end_leaves}
    )


def concat(w1: MoveWord, w2: MoveWord) -> MoveWord:
    if w1.tree != w2.tree:
        raise TreeMismatchError("words live on different trees")
    return MoveWord(w1.tree, w1.base, w1.moves + w2.moves)


def invert_word(word: MoveWord) -> MoveWord:
    """Reverse the moves: amounts negate, rearrangements restore the
    masses recorded just before they were applied.  The inverse is based
    at the word's final state, so ``concat(w, invert_word(w))`` returns
    to the base with zero flux."""
    inv: List[Move] = []
    for r, m, replaced in _walk(word):
        if isinstance(m, Rearrange):
            inv.append(Rearrange(m.support, r._out_all(replaced)))
        else:
            inv.append(BalloonMove(m.edge, -m.amount))
    return MoveWord(word.tree, _replay(word).state(), tuple(reversed(inv)))


def region_transfer(word: MoveWord, region: Iterable[str]) -> Fraction:
    """Net mass the word moves into a region: signed flux over its
    frontier edges, oriented inward."""
    r = _replay(word)
    edges = frontier_edges(word.tree, region)
    return r._out(sum(sign * r.flux[e] for (e, sign) in edges))


def extensionally_equal(w1: MoveWord, w2: MoveWord) -> bool:
    """Same tree, base, final state and flux field."""
    if w1.tree != w2.tree or w1.base != w2.base:
        return False
    s1, f1 = apply_word(w1)
    s2, f2 = apply_word(w2)
    return s1 == s2 and f1 == f2


def _route_edges(tree: BalloonTree, src: str, dst: str, amount):
    """The (edge, signed amount) steps carrying ``amount`` from ``src`` to
    ``dst`` along the tree path, in any exact number type."""
    path = tree.path(src, dst)
    return [
        ((a, b), amount) if tree.parent.get(b) == a else ((b, a), -amount)
        for a, b in zip(path, path[1:])
    ]


def route(
    tree: BalloonTree, src: str, dst: str, amount: Fraction
) -> List[BalloonMove]:
    """Edge moves carrying ``amount`` from ``src`` to ``dst`` along the
    tree path.  Every intermediate stop receives before it sends, so the
    moves keep positivity whenever the source can spare the amount."""
    return [BalloonMove(e, d) for e, d in _route_edges(tree, src, dst, amount)]


def _rearrangement_moves(
    tree: BalloonTree,
    anchor: str,
    cur: Mapping[str, Fraction],
    new: Mapping[str, Fraction],
) -> List[Tuple[Edge, Fraction]]:
    """The (edge, signed amount) steps taking the checked support masses
    ``cur`` to ``new`` through the support's top node ``anchor``; the
    amounts are in the units of the masses, Fractions or ints."""
    # a node sends its surplus or receives its deficit, never both, so the
    # starting masses settle both passes.  Surpluses go up in preorder and
    # deficits are served in reverse preorder: the inverse shuffle's steps
    # are then this one's, reversed and negated, so a word followed by its
    # inverse moves every segment back where it came from
    order = sorted(set(cur) - {anchor}, key=tree.preorder_index.__getitem__)
    steps: List[Tuple[Edge, Fraction]] = []
    for v in order:
        if cur[v] > new[v]:
            steps += _route_edges(tree, v, anchor, cur[v] - new[v])
    for v in reversed(order):
        if new[v] > cur[v]:
            steps += _route_edges(tree, anchor, v, new[v] - cur[v])
    return steps
