"""Concrete 1-D realization: piecewise-linear maps on a star of rays.

A ray star is a center block with ``r`` rays; ray ``i`` carries ``D``
cells of given masses and a tail beyond them.  Everything is coordinatized
by cumulative mass along the ray (measure coordinate), in which the
reference measure is unit-density, so a map preserves measure exactly
when its pieces have unit slope.

A word on the associated balloon tree is realized move by move on region
queues: each fixed region (the center, each cell, each tail) keeps the
ordered source segments the map sends onto it, and an edge transfer moves
the segments holding its amount across the edge.  The queues count exact
integer units 1/U, with U the least common multiple of the denominators
of the star's masses and of the word's base masses, amounts and
rearranged masses (the star adds nothing to a word based at its
measure), and the regions are laid out on U by int prefix sums of the
star's masses; every edge move is a whole number of units, the
replay that checks the word runs on the same unit and hands the queues
each amount it read (a shuffle is decomposed on its ints), and the
pieces are converted back to Fractions once.  The star has one layout
walk, :meth:`RayStar._layout`, generic in the number type: it gives the
Fraction ``node_intervals`` and the builder's int intervals, in the same
key order, over the cell and end ids the star formats once (a star read
by :meth:`RayStar.from_tree` keeps the ids it formatted to read its
masses).  A shuffle's edge steps send surpluses up to the support's top
in preorder and serve deficits from it in reverse preorder, so the
inverse shuffle's steps are this one's reversed and negated: a word
followed by its inverse moves every segment back and realizes to the
identity.  An edge move takes the segments holding its amount off one
end of a region's queue (a single split in the common case) and merges
them into the neighbouring queue in place.  A pool segment stands in for the center block; segments
crossing between pool and rays model the mixing the center performs,
treated as a black box (only the rays are honest 1-D geometry).  The
interior distribution of a block is below the model's resolution, so
each region is finally laid out at uniform density: every piece has unit
slope and all rational data stay small.
The end charge of the realized map is then recomputed from the raw
definition - the masses of ``C - h(C)`` and ``h(C) - C`` for a tail
region ``C`` - by exact interval arithmetic, giving an oracle fully
independent of the flux accounting.  A realized map keeps its last
breakpoint once scanned, so the cuts beyond it are read without another
scan of the pieces, and it keeps its pieces read into ints once
(:func:`_int_view`): the definition clips, subtracts and measures each
tail on those ints with the same normalized-set helpers the public
interval-set functions run on Fractions, normalizes each image once and
makes one Fraction per end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Dict, List, Tuple

from .charge import EndCharge
from .errors import (
    ChargeUndefinedError,
    CutTooShallowError,
    NonPositiveMassError,
    RealizationError,
    TreeMismatchError,
)
from .extmath import INF, ExtMass, as_frac, as_mass, is_inf
from .transport import (
    BalloonMove,
    MoveWord,
    Rearrange,
    _rearrangement_moves,
    _replay,
    _require_preserving,
    _walk,
    _word_unit,
    charge_of_word,
)
from .tree import BalloonTree

Zero = Fraction(0)
One = Fraction(1)


@dataclass(frozen=True, eq=False)
class RayStar:
    """Center block joining r rays of D unit cells plus a tail each.

    Every mass is positive (tails may be infinite); the constructor raises
    :class:`NonPositiveMassError`, a ``ValueError``, naming the center, the
    cell ``(i, k)`` or the tail that is not."""

    center_mass: Fraction
    cells: Tuple[Tuple[Fraction, ...], ...]
    tails: Tuple[ExtMass, ...]

    def __post_init__(self):
        object.__setattr__(self, "center_mass", as_frac(self.center_mass))
        object.__setattr__(
            self,
            "cells",
            tuple(tuple(as_frac(m) for m in ray) for ray in self.cells),
        )
        object.__setattr__(
            self, "tails", tuple(as_mass(m) for m in self.tails)
        )
        if self.ray_count < 2:
            raise ValueError("a ray star needs at least two rays")
        if len(self.tails) != self.ray_count:
            raise ValueError("one tail per ray required")
        if self.depth < 1 or any(
            len(ray) != self.depth for ray in self.cells
        ):
            raise ValueError("all rays need the same positive cell count")
        bad = []
        if self.center_mass <= 0:
            bad.append((self.center_mass, "the center"))
        # a Fraction's sign is its numerator's; reading it is far cheaper
        # than a comparison, and a long star has hundreds of cells
        for i, ray in enumerate(self.cells):
            bad += [
                (m, f"cell ({i}, {k})")
                for k, m in enumerate(ray)
                if m.numerator <= 0
            ]
        for i, m in enumerate(self.tails):
            if not is_inf(m) and m <= 0:
                bad.append((m, f"the tail of ray {i}"))
        if bad:
            raise NonPositiveMassError("non-positive mass %s at %s" % bad[0])

    @property
    def ray_count(self) -> int:
        return len(self.cells)

    @property
    def depth(self) -> int:
        return len(self.cells[0])

    def ray_length(self, i: int) -> ExtMass:
        """Mass of ray ``i``, its cells and its tail: ``INF`` for an
        infinite tail."""
        tail = self.tails[i]
        return tail if is_inf(tail) else sum(self.cells[i], tail)

    @cached_property
    def node_intervals(self) -> Dict[str, Tuple[int, Fraction, ExtMass]]:
        """Node id of the star's tree -> its fixed interval (location, lo,
        hi) in Fractions, as :meth:`_layout` orders them."""
        return self._layout(lambda m: m)

    def _layout(self, read) -> dict:
        """Node id -> fixed interval (location, lo, hi), with every mass
        taken through ``read`` into one exact number type (``INF`` passes
        through) and the ends found by prefix sums in that type: the
        center first, then each ray from its first cell to its End leaf.
        This is the one layout of the star, in Fractions for
        :attr:`node_intervals` and in ints for :class:`_PLBuilder`."""
        zero = read(Zero)
        center = (self.ray_count, zero, read(self.center_mass))
        out = {self.center_id(): center}
        for i, (ids, ray, tail) in enumerate(
            zip(self._ray_ids, self.cells, self.tails)
        ):
            lo = zero
            for v, m in zip(ids, ray):
                hi = lo + read(m)
                out[v] = (i, lo, hi)
                lo = hi
            out[ids[-1]] = (i, lo, lo + read(tail))
        return out

    # node ids of the associated balloon tree
    @staticmethod
    def center_id() -> str:
        return "c"

    @staticmethod
    def cell_id(i: int, k: int) -> str:
        return f"r{i}c{k}"

    @staticmethod
    def end_id(i: int) -> str:
        return f"r{i}e"

    def to_tree(self) -> BalloonTree:
        return self._tree

    @cached_property
    def _tree(self) -> BalloonTree:
        return BalloonTree(*self._parts())

    @cached_property
    def _ray_ids(self) -> List[List[str]]:
        """The ids of each ray's cells and End leaf, formatted once."""
        return [
            [self.cell_id(i, k) for k in range(self.depth)] + [self.end_id(i)]
            for i in range(self.ray_count)
        ]

    def _parts(self):
        """The canonical tree's root, children, weights and tails: the
        center's children are the rays' first cells, each cell's one child
        is the next cell or its ray's End leaf, and no leaf is Closed."""
        ray_ids = self._ray_ids
        c = self.center_id()
        children = {c: tuple(ids[0] for ids in ray_ids)}
        weights = {c: self.center_mass}
        tails = {}
        for ids, ray, tail in zip(ray_ids, self.cells, self.tails):
            children.update(zip(ids, zip(ids[1:])))  # each cell: (next,)
            weights.update(zip(ids, ray))
            tails[ids[-1]] = tail
        return c, children, weights, tails

    @classmethod
    def from_tree(cls, tree: BalloonTree, rays: int, depth: int) -> "RayStar":
        """The star whose canonical tree is ``tree``, kept as its
        :meth:`to_tree`.  The masses are read at the ids ``c``, ``r{i}c{k}``
        and ``r{i}e``, and the tree must equal, part by part, the one
        :meth:`to_tree` would build; the same nodes listed in another order
        are equal.  Any other tree is refused with a ``ValueError`` naming
        the first node where it differs."""

        def weight(v):
            if v not in tree.weights:
                raise ValueError(f"block {v!r} has no weight")
            return tree.weights[v]

        def tail(v):
            if v not in tree.tails:
                raise ValueError(f"end {v!r} has no tail")
            return tree.tails[v]

        # id by id, so a header larger than the tree fails at its first
        # missing id; each id is formatted once, for the masses and the parts
        ray_ids, cells, ends = [], [], []
        for i in range(rays):
            ids, ray = [], []
            for k in range(depth):
                ids.append(cls.cell_id(i, k))
                ray.append(weight(ids[-1]))
            ids.append(cls.end_id(i))
            ray_ids.append(ids)
            cells.append(tuple(ray))
            ends.append(tail(ids[-1]))
        star = cls(weight(cls.center_id()), tuple(cells), tuple(ends))
        # a cached property is stored in the instance dict, which a frozen
        # dataclass leaves writable
        vars(star)["_ray_ids"] = ray_ids
        root, *parts = star._parts()
        if tree.root != root:
            raise ValueError(f"the root is {tree.root!r}, not {root!r}")
        given = (tree.children, tree.weights, tree.tails)
        for name, got, want in zip(("children", "weight", "tail"), given, parts):
            if got != want:
                v = next(v for v in (*got, *want) if got.get(v) != want.get(v))
                raise ValueError(
                    f"node {v!r} has {name} {got.get(v, 'none')}; "
                    f"the canonical tree has {want.get(v, 'none')}"
                )
        if tree.closed:
            raise ValueError(
                f"node {min(tree.closed)!r} is a Closed leaf; "
                "the canonical tree has none"
            )
        vars(star)["_tree"] = tree
        return star


@dataclass(frozen=True)
class Piece:
    """One affine piece: for x in [lo, hi) on location src,
    image = a + slope * x on location dst.  Locations 0..r-1 are rays,
    r is the center pool."""

    src: int
    lo: Fraction
    hi: ExtMass
    dst: int
    a: Fraction
    slope: Fraction


@dataclass(frozen=True, eq=False)
class PLMap:
    """Finite list of affine pieces forming a bijection of the star."""

    star: RayStar
    pieces: Tuple[Piece, ...]

    def apply(self, loc: int, x: Fraction) -> Tuple[int, Fraction]:
        for p in self.pieces:
            if p.src == loc and p.lo <= x < p.hi:
                return (p.dst, p.a + p.slope * x)
        raise ValueError(f"point ({loc}, {x}) outside the map's domain")

    def last_breakpoint(self) -> Fraction:
        """Largest finite piece boundary on any ray.  The pieces are
        scanned once and the value kept in the instance dict, which a
        frozen dataclass leaves writable; it is no field, so ``repr``
        does not see it, and equality is identity."""
        kept = vars(self).get("_last_breakpoint")
        if kept is None:
            kept = Zero
            rays = self.star.ray_count
            for p in self.pieces:
                if p.src >= rays:
                    continue
                kept = max(kept, p.lo)
                if not is_inf(p.hi):
                    kept = max(kept, p.hi)
            vars(self)["_last_breakpoint"] = kept
        return kept

    def eventual_shift(self, ray: int) -> Fraction:
        """Translation constant on the deep part of a ray (measure
        coordinate); zero for a finite ray fixed near its end."""
        deep = None
        for p in self.pieces:
            if p.src == ray and (deep is None or p.lo > deep.lo):
                deep = p
        if deep is None or deep.dst != ray or deep.slope != 1:
            raise ChargeUndefinedError(
                f"ray {ray} is not eventually a translation"
            )
        return deep.a


# -- interval sets ------------------------------------------------------------
# An interval set is a list of (loc, lo, hi) triples, hi possibly INF.
# ``Inf`` orders above every Fraction and int under <, ==, min and max, so
# clipping and merging need no special case for infinite right ends.  The
# helpers below that take a normalized set are generic in the number type:
# the public functions run them on Fractions after normalizing, and
# :func:`charge_from_definition` runs them on a map's int view.


def _outside(lo, hi, x0, x1):
    """The parts of the nonempty [lo, hi) left and right of [x0, x1)."""
    out = []
    if lo < x0:
        out.append((lo, min(hi, x0)))
    if x1 < hi:
        out.append((max(lo, x1), hi))
    return out


def _image(a, s, lo, hi):
    """Image of [lo, hi) under x -> a + s * x.  Negative slopes occur only
    on bounded pieces."""
    if s > 0:
        return a + s * lo, INF if is_inf(hi) else a + s * hi
    return a + s * hi, a + s * lo


def _inverse_piece(src, lo, hi, dst, a, s) -> Piece:
    """The inverse of the affine piece sending [lo, hi) on src to dst."""
    i_lo, i_hi = _image(a, s, lo, hi)
    return Piece(dst, i_lo, i_hi, src, -a / s, 1 / s)


def _merge_pieces(pieces):
    """Join neighbouring (lo, hi, dst, a, s) pieces that carry the same
    affine map."""
    merged = []
    for piece in pieces:
        last = merged[-1] if merged else None
        if last and last[1] == piece[0] and last[2:] == piece[2:]:
            merged[-1] = (last[0], piece[1]) + last[2:]
        else:
            merged.append(piece)
    return merged


def iset_normalize(iset):
    """The set as disjoint, non-touching ``(loc, lo, hi)`` tuples, sorted by
    location and start, empty intervals dropped; a fresh list."""
    if len(iset) < 2:
        return [(loc, lo, hi) for (loc, lo, hi) in iset if lo < hi]
    by_loc: dict = {}
    for (loc, lo, hi) in iset:
        if lo < hi:
            by_loc.setdefault(loc, []).append((lo, hi))
    out = []
    for loc in sorted(by_loc):
        merged = []
        for lo, hi in sorted(by_loc[loc], key=lambda t: t[0]):
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        out.extend((loc, lo, hi) for lo, hi in merged)
    return out


def _subtract(a, b) -> list:
    """a - b for normalized sets: the parts of each interval of ``a``
    outside every interval of ``b``, again a normalized set (the parts are
    nonempty, ordered, and part from part by an interval of ``b``)."""
    out = []
    for (loc, lo, hi) in a:
        parts = [(lo, hi)]
        for (bl, blo, bhi) in b:
            if bl == loc:
                parts = [
                    o for (l, h) in parts for o in _outside(l, h, blo, bhi)
                ]
        out.extend((loc, l, h) for (l, h) in parts)
    return out


def _mass(nset, total):
    """``total`` plus the mass of a normalized set: ``INF`` when the set is
    unbounded."""
    for (_, lo, hi) in nset:
        if is_inf(hi):
            return INF
        total += hi - lo
    return total


def _by_src(pieces) -> dict:
    """(src, lo, hi, dst, a, s) pieces as their (lo, hi, dst, a, s) parts
    listed by source location, in order."""
    by_src: dict = {}
    for (src, lo, hi, dst, a, s) in pieces:
        by_src.setdefault(src, []).append((lo, hi, dst, a, s))
    return by_src


def _images(by_src: dict, nset) -> list:
    """The images of a normalized set's intervals, clipped to each piece of
    :func:`_by_src` that meets them; not normalized."""
    out = []
    for (loc, lo, hi) in nset:
        for (p_lo, p_hi, dst, a, s) in by_src.get(loc, ()):
            # the cheap test first: most pieces of a ray end before a cut
            if lo < p_hi and p_lo < hi:
                out.append((dst, *_image(a, s, max(p_lo, lo), min(p_hi, hi))))
    return out


def iset_subtract(a, b):
    """Measure-exact difference a - b of interval sets."""
    return _subtract(iset_normalize(a), iset_normalize(b))


def iset_mass(iset) -> ExtMass:
    return _mass(iset_normalize(iset), Zero)


def image_intervals(h: PLMap, iset):
    pieces = _by_src(
        (p.src, p.lo, p.hi, p.dst, p.a, p.slope) for p in h.pieces
    )
    return iset_normalize(_images(pieces, iset_normalize(iset)))


def invert_plmap(h: PLMap) -> PLMap:
    pieces = [
        _inverse_piece(p.src, p.lo, p.hi, p.dst, p.a, p.slope)
        for p in h.pieces
    ]
    pieces.sort(key=lambda q: (q.src, q.lo))
    return PLMap(h.star, tuple(pieces))


def preimage_intervals(h: PLMap, iset):
    return image_intervals(invert_plmap(h), iset)


def region_intervals(star: RayStar, region) -> list:
    """Fixed coordinate intervals of a node subset of the star's tree."""
    out = []
    for v in region:
        try:
            out.append(star.node_intervals[v])
        except KeyError:
            raise TreeMismatchError(
                f"node {v!r} is not part of the star"
            ) from None
    return iset_normalize(out)


# -- realization --------------------------------------------------------------
# A segment (loc, start, mass, direction) is the source interval
# [start, start + mass) on location loc, read forwards along its region
# when direction is +1 and backwards when it is -1.  Only tails hold an
# infinite segment, always forwards and last.  Starts and masses are ints
# counting units 1/U of the builder's common denominator U; ``INF`` orders
# and absorbs against ints as it does against Fractions.


def _split(seg, m: int):
    """Cut a segment after mass m from its front: (front, rest)."""
    loc, start, mass, d = seg
    if d > 0:
        return (loc, start, m, d), (loc, start + m, mass - m, d)
    return (loc, start + mass - m, m, d), (loc, start, mass - m, d)


def _take_front(queue: list, m: int) -> list:
    """Remove and return the segments holding the queue's first m of mass."""
    # the common case: the first segment holds more than m, so it is split
    if m and queue and queue[0][2] > m:
        seg, queue[0] = _split(queue[0], m)
        return [seg]
    taken = []
    while m:
        if not queue:
            raise RealizationError("move takes more mass than the region holds")
        seg = queue[0]
        if seg[2] > m:
            seg, queue[0] = _split(seg, m)
        else:
            del queue[0]
        taken.append(seg)
        m -= seg[2]
    return taken


def _take_back(queue: list, m: int) -> list:
    """Remove and return the segments holding the queue's last m of mass."""
    # the common case: the last segment holds more than m, so it is split
    if m and queue and queue[-1][2] > m:
        queue[-1], seg = _split(queue[-1], queue[-1][2] - m)
        return [seg]
    taken = []
    while m:
        if not queue:
            raise RealizationError("move takes more mass than the region holds")
        seg = queue.pop()
        if seg[2] > m:
            rest, seg = _split(seg, seg[2] - m)
            queue.append(rest)
        taken.append(seg)
        m -= seg[2]
    taken.reverse()
    return taken


def _join(queue: list, segs: list, front: bool) -> None:
    """Put ``segs`` in front of ``queue`` (``front``) or behind it, in
    place, merging the two segments at the seam when they are contiguous
    in the source."""
    if queue and segs:
        if front:
            (loc, start, m, d), (loc2, start2, m2, d2) = segs[-1], queue[0]
        else:
            (loc, start, m, d), (loc2, start2, m2, d2) = queue[-1], segs[0]
        seam = start + m == start2 if d > 0 else start2 + m2 == start
        if loc == loc2 and d == d2 and seam:
            merged = (loc, min(start, start2), m + m2, d)
            if front:
                queue[0] = merged
                segs.pop()
            else:
                queue[-1] = merged
                del segs[0]
    if front:
        queue[:0] = segs
    else:
        queue += segs


def _reverse(queue: list) -> list:
    """The same segments read from the other end of the region."""
    return [(loc, start, m, -d) for (loc, start, m, d) in reversed(queue)]


def _in_units(x: ExtMass, unit: int):
    """x as an int count of units 1/unit (``INF`` stays ``INF``); x must
    be a whole number of units."""
    return x if is_inf(x) else x.numerator * (unit // x.denominator)


class _PLBuilder:
    """Tracks h by region queues: for each fixed region of the star (the
    center, each cell, each tail), the ordered source segments that h maps
    onto it.

    Queues hold exact ints counting units 1/U, where U is the least common
    multiple of ``unit`` and the denominators of the star's masses (its
    center, cells and finite tails): ``unit`` itself when it is the unit
    of a word based at the star's measure.  Every interval end is a sum of
    masses, so ``intervals`` (:attr:`RayStar.node_intervals` in units, in
    the same key order) is the star's one layout walk
    (:meth:`RayStar._layout`) on ints, over the ids the star formatted
    once, and no Fraction interval is computed.  :meth:`_shift` is the
    one way in: it takes a star edge and an int count of units, both
    checked and read by the runner :func:`realize_word` builds on the
    same unit, so the builder neither checks an edge nor converts an
    amount.  ``to_plmap`` converts back to Fractions once per piece.

    An edge move of amount d > 0 takes the segments holding the last d of
    mass of the parent's region and puts them, in order, in front of the
    child's; d < 0 moves the child's first -d back behind the parent's.
    Every star edge joins the end of its parent's region to the start of
    its child's, except at the center, which meets every ray at pool
    coordinate 0: its queue is stored reversed, from pool coordinate
    ``center_mass`` down to 0, so the same rule holds there.
    """

    def __init__(self, star: RayStar, unit: int):
        self.star = star
        dens = {star.center_mass.denominator}
        dens.update(m.denominator for ray in star.cells for m in ray)
        dens.update(m.denominator for m in star.tails if not is_inf(m))
        self.unit = u = math.lcm(unit, *dens)
        self.intervals = star._layout(partial(_in_units, unit=u))
        self.queues = {
            v: [(loc, lo, hi - lo, 1)]
            for v, (loc, lo, hi) in self.intervals.items()
        }
        center = star.center_id()
        self.queues[center] = _reverse(self.queues[center])

    def _shift(self, edge, d: int):
        """Move ``d`` units across a star edge by the queue rule above."""
        parent, child = edge
        q = self.queues
        if d > 0:
            _join(q[child], _take_back(q[parent], d), True)
        elif d < 0:
            _join(q[parent], _take_front(q[child], -d), False)

    def to_plmap(self) -> PLMap:
        """Lay every region out at unit density and invert.

        Once the word has restored every block mass, each fixed region
        holds exactly its reference mass, so the map is measure-preserving
        (all pieces of unit slope) with honest eventual translations on the
        tails.
        """
        star = self.star
        laid = [[] for _ in range(star.ray_count + 1)]
        ends = {}
        for v, (loc, lo, hi) in self.intervals.items():
            segs = self.queues[v]
            if v == star.center_id():
                segs = _reverse(segs)
            x = lo
            for (dst, start, m, d) in segs:
                # q = h^{-1} on [x, x + m): the segment read at unit speed
                front = start if d > 0 else start + m
                laid[loc].append((x, x + m, dst, front - d * x, d))
                x += m
            if x != hi:
                raise RealizationError(
                    "normalization requires restored block masses"
                )
            ends[loc] = hi
        # the inverse of x -> a + s * x (s = +-1) is y -> -a * s + s * y
        inverse = [
            (dst, *_image(a, s, lo, hi), loc, -a * s, s)
            for loc, q in enumerate(laid)
            for (lo, hi, dst, a, s) in _merge_pieces(q)
        ]
        inverse.sort(key=lambda p: (p[0], p[1]))
        reached = {loc: 0 for loc in ends}
        for (src, lo, hi, *_) in inverse:
            if lo != reached[src]:
                raise RealizationError("realized map is not a bijection")
            reached[src] = hi
        if reached != ends:
            raise RealizationError("realized map is not a bijection")
        unit = self.unit
        return PLMap(
            star,
            tuple(
                Piece(
                    src,
                    Fraction(lo, unit),
                    hi if is_inf(hi) else Fraction(hi, unit),
                    dst,
                    Fraction(a, unit),
                    One if s > 0 else -One,
                )
                for (src, lo, hi, dst, a, s) in inverse
            ),
        )


def realize_word(star: RayStar, word: MoveWord) -> PLMap:
    """Piecewise-linear map whose block-level action and edge fluxes are
    those of the (measure-preserving) word.

    The walk that checks the word is its own replay
    (:func:`~endflow.transport._walk`), so a later
    :func:`~endflow.transport.charge_of_word` reads the flux charge off
    it without walking the word again."""
    tree = star.to_tree()
    if word.tree != tree:
        raise TreeMismatchError("word does not live on the star's tree")
    builder = _PLBuilder(star, _word_unit(word))
    # the runner shares the builder's unit and reads each move once before
    # the builder sees it, so a shuffle is decomposed on the runner's ints
    for runner, mv, read in _walk(word, builder.unit):
        # a balloon move, the common case, is known by its exact type
        if type(mv) is BalloonMove or not isinstance(mv, Rearrange):
            builder._shift(mv.edge, read)
        else:
            new = {v: runner.blocks[v] for v in mv.support}
            anchor = tree.top(mv.support)
            for edge, d in _rearrangement_moves(tree, anchor, read, new):
                builder._shift(edge, d)
    _require_preserving(word, _replay(word))
    return builder.to_plmap()


def oracle_cuts(h: PLMap, count: int) -> List[Fraction]:
    """The tail cuts the oracle reads a realized map at: one past its last
    breakpoint, then every 7."""
    first = h.last_breakpoint() + 1
    return [first + 7 * k for k in range(count)]


def _int_view(h: PLMap, star: RayStar, cut: Fraction):
    """``(star, base, unit, rays, pieces)``: the map and the star's rays in
    ints counting units 1/unit, for :func:`charge_from_definition`.

    ``pieces`` are the map's pieces by source location (:func:`_by_src`)
    and ``rays`` each ray's End leaf id and length.  ``base`` is the lcm
    of the denominators of the pieces' ends and offsets, of the finite ray
    lengths and of every cut read so far, and ``unit`` is ``base`` times
    the lcm of the slopes' denominators, so the image a + s * x of a whole
    number of units 1/base is a whole number of units 1/unit.  A slope is
    kept as an int when it is integral (a realized map's are +-1).  The
    pieces are read once per map and star; a cut that ``base`` does not
    cover scales the kept view up.  The view is kept in the map's instance
    dict, as its last breakpoint is: it is no field, so ``repr`` and
    equality do not see it."""
    view = vars(h).get("_int_view")
    if view is None or view[0] is not star:
        pieces = [(p.src, p.lo, p.hi, p.dst, p.a, p.slope) for p in h.pieces]
        lengths = [star.ray_length(i) for i in range(star.ray_count)]
        xs = [x for (_, lo, hi, _, a, _) in pieces for x in (lo, hi, a)]
        base = math.lcm(
            *(x.denominator for x in xs + lengths if not is_inf(x))
        )
        unit = base * math.lcm(*(p[5].denominator for p in pieces))
        read = partial(_in_units, unit=unit)
        rays = [(star.end_id(i), read(m)) for i, m in enumerate(lengths)]
        pieces = _by_src(
            (src, read(lo), read(hi), dst, read(a),
             s.numerator if s.denominator == 1 else s)
            for (src, lo, hi, dst, a, s) in pieces
        )
        view = (star, base, unit, rays, pieces)
    star, base, unit, rays, pieces = view
    k = cut.denominator // math.gcd(base, cut.denominator)
    if k > 1:
        def scale(x):
            return x if is_inf(x) else x * k

        rays = [(end, scale(m)) for end, m in rays]
        pieces = {
            src: [(lo * k, scale(hi), dst, a * k, s) for lo, hi, dst, a, s in q]
            for src, q in pieces.items()
        }
        view = (star, base * k, unit * k, rays, pieces)
    vars(h)["_int_view"] = view
    return view


def charge_from_definition(star: RayStar, h: PLMap, cut) -> EndCharge:
    """End charge read off the raw definition: for each ray end, with C
    the tail beyond the cut, mass(C - h(C)) - mass(h(C) - C).  The sets
    are computed on the map's int view (:func:`_int_view`), the image of
    C is normalized once, and each end's value is made a Fraction once."""
    T = as_frac(cut)
    if T <= h.last_breakpoint():
        raise CutTooShallowError(
            f"cut {T} not beyond the last breakpoint {h.last_breakpoint()}"
        )
    _, _, unit, rays, pieces = _int_view(h, star, T)
    t = T.numerator * (unit // T.denominator)
    values = {}
    for i, (end, length) in enumerate(rays):
        if t >= length:
            values[end] = Zero
            continue
        region = [(i, t, length)]
        image = iset_normalize(_images(pieces, region))
        gained = _mass(_subtract(region, image), 0)
        lost = _mass(_subtract(image, region), 0)
        diff = gained - lost
        values[end] = diff if is_inf(diff) else Fraction(diff, unit)
    return EndCharge(star.to_tree(), values)


def compare_oracle(star: RayStar, word: MoveWord, cut=None) -> bool:
    """Exact agreement of the flux charge and the set-difference charge."""
    h = realize_word(star, word)
    T = as_frac(cut) if cut is not None else oracle_cuts(h, 1)[0]
    return charge_from_definition(star, h, T) == charge_of_word(word)
