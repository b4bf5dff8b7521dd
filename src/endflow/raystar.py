"""Concrete 1-D realization: piecewise-linear maps on a star of rays.

A ray star is a center block with ``r`` rays; ray ``i`` carries ``D``
cells of given masses and a tail beyond them.  Everything is coordinatized
by cumulative mass along the ray (measure coordinate), in which the
reference measure is unit-density, so a map preserves measure exactly
when its pieces have unit slope.

A word on the associated balloon tree is realized move by move on region
queues: each fixed region (the center, each cell, each tail) keeps the
ordered source segments the map sends onto it, and an edge transfer moves
the segments holding its amount across the edge.  A pool segment stands
in for the center block; segments crossing between pool and rays model
the mixing the center performs, treated as a black box (only the rays
are honest 1-D geometry).  The interior distribution of a block is below
the model's resolution, so each region is finally laid out at uniform
density: every piece has unit slope and all rational data stay small.
The end charge of the realized map is then recomputed from the raw
definition - the masses of ``C - h(C)`` and ``h(C) - C`` for a tail
region ``C`` - by exact interval arithmetic, giving an oracle fully
independent of the flux accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Tuple

from .charge import EndCharge
from .errors import (
    ChargeUndefinedError,
    CutTooShallowError,
    TreeMismatchError,
)
from .extmath import INF, ExtMass, as_frac, as_mass, is_inf
from .transport import (
    BalloonMove,
    MoveWord,
    Rearrange,
    _preserves,
    _Runner,
    charge_of_word,
    rearrange_to_moves,
)
from .tree import BalloonTree

Zero = Fraction(0)
One = Fraction(1)


@dataclass(frozen=True, eq=False)
class RayStar:
    """Center block joining r rays of D unit cells plus a tail each."""

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

    @property
    def ray_count(self) -> int:
        return len(self.cells)

    @property
    def depth(self) -> int:
        return len(self.cells[0])

    def bounds(self, i: int) -> List[Fraction]:
        """Cumulative cell boundaries B_0 = 0 .. B_D along ray i."""
        out = [Zero]
        for m in self.cells[i]:
            out.append(out[-1] + m)
        return out

    def ray_length(self, i: int) -> ExtMass:
        return self.bounds(i)[-1] + self.tails[i]

    @cached_property
    def node_intervals(self) -> Dict[str, Tuple[int, Fraction, ExtMass]]:
        """Node id of the star's tree -> its fixed interval (location, lo,
        hi): the center first, then each ray from its first cell to its
        tail."""
        out = {self.center_id(): (self.ray_count, Zero, self.center_mass)}
        for i in range(self.ray_count):
            bounds = self.bounds(i)
            for k in range(self.depth):
                out[self.cell_id(i, k)] = (i, bounds[k], bounds[k + 1])
            out[self.end_id(i)] = (i, bounds[-1], bounds[-1] + self.tails[i])
        return out

    # node ids of the associated balloon tree
    def center_id(self) -> str:
        return "c"

    def cell_id(self, i: int, k: int) -> str:
        return f"r{i}c{k}"

    def end_id(self, i: int) -> str:
        return f"r{i}e"

    def to_tree(self) -> BalloonTree:
        return self._tree

    @cached_property
    def _tree(self) -> BalloonTree:
        children = {
            self.center_id(): tuple(
                self.cell_id(i, 0) for i in range(self.ray_count)
            )
        }
        weights = {self.center_id(): self.center_mass}
        tails = {}
        for i in range(self.ray_count):
            for k in range(self.depth):
                nxt = (
                    self.cell_id(i, k + 1)
                    if k + 1 < self.depth
                    else self.end_id(i)
                )
                children[self.cell_id(i, k)] = (nxt,)
                weights[self.cell_id(i, k)] = self.cells[i][k]
            tails[self.end_id(i)] = self.tails[i]
        return BalloonTree(
            root=self.center_id(),
            children=children,
            weights=weights,
            tails=tails,
        )

    @classmethod
    def from_tree(cls, tree: BalloonTree, rays: int, depth: int) -> "RayStar":
        """Rebuild a star from a tree with the canonical chain shape."""
        root = tree.root
        kids = tree.child_map(root)
        if len(kids) != rays:
            raise ValueError("root degree does not match the ray count")
        cells = []
        tails = []
        for i, first in enumerate(kids):
            ray = []
            v = first
            for k in range(depth):
                if tree.is_end_leaf(v):
                    raise ValueError(f"ray {i} shorter than the depth")
                ray.append(tree.weights[v])
                nxt = tree.child_map(v)
                if len(nxt) != 1:
                    raise ValueError(f"ray {i} is not a chain")
                v = nxt[0]
            if not tree.is_end_leaf(v):
                raise ValueError(f"ray {i} does not end in an End leaf")
            cells.append(tuple(ray))
            tails.append(tree.tails[v])
        return cls(tree.weights[root], tuple(cells), tuple(tails))


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
        """Largest finite piece boundary on any ray."""
        out = Zero
        for p in self.pieces:
            if p.src >= self.star.ray_count:
                continue
            out = max(out, p.lo)
            if not is_inf(p.hi):
                out = max(out, p.hi)
        return out

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
# ``Inf`` orders above every Fraction under <, ==, min and max, so clipping
# and merging need no special case for infinite right ends.


def _clip(lo, hi, lo2, hi2):
    """Overlap of [lo, hi) and [lo2, hi2), or None when it is empty."""
    o_lo, o_hi = max(lo, lo2), min(hi, hi2)
    return (o_lo, o_hi) if o_lo < o_hi else None


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


def iset_subtract(a, b):
    """Measure-exact difference a - b of interval sets."""
    b = iset_normalize(b)
    out = []
    for (loc, lo, hi) in iset_normalize(a):
        parts = [(lo, hi)]
        for (bl, blo, bhi) in b:
            if bl == loc:
                parts = [
                    o for (l, h) in parts for o in _outside(l, h, blo, bhi)
                ]
        out.extend((loc, l, h) for (l, h) in parts)
    return iset_normalize(out)


def iset_intersect(a, b):
    b = iset_normalize(b)
    out = []
    for (loc, lo, hi) in iset_normalize(a):
        for (bl, blo, bhi) in b:
            o = _clip(lo, hi, blo, bhi) if bl == loc else None
            if o:
                out.append((loc, *o))
    return iset_normalize(out)


def iset_mass(iset) -> ExtMass:
    total = Zero
    for (_, lo, hi) in iset_normalize(iset):
        if is_inf(hi):
            return INF
        total += hi - lo
    return total


def image_intervals(h: PLMap, iset):
    out = []
    for (loc, lo, hi) in iset_normalize(iset):
        for p in h.pieces:
            o = _clip(p.lo, p.hi, lo, hi) if p.src == loc else None
            if o:
                out.append((p.dst, *_image(p.a, p.slope, *o)))
    return iset_normalize(out)


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
# infinite segment, always forwards and last.


def _split(seg, m: Fraction):
    """Cut a segment after mass m from its front: (front, rest)."""
    loc, start, mass, d = seg
    if d > 0:
        return (loc, start, m, d), (loc, start + m, mass - m, d)
    return (loc, start + mass - m, m, d), (loc, start, mass - m, d)


def _take_front(queue: list, m: Fraction) -> list:
    """Remove and return the segments holding the queue's first m of mass."""
    taken = []
    while m:
        if not queue:
            raise ArithmeticError("move takes more mass than the region holds")
        seg = queue.pop(0)
        if seg[2] > m:
            seg, rest = _split(seg, m)
            queue.insert(0, rest)
        taken.append(seg)
        m -= seg[2]
    return taken


def _take_back(queue: list, m: Fraction) -> list:
    """Remove and return the segments holding the queue's last m of mass."""
    taken = []
    while m:
        if not queue:
            raise ArithmeticError("move takes more mass than the region holds")
        seg = queue.pop()
        if seg[2] > m:
            rest, seg = _split(seg, seg[2] - m)
            queue.append(rest)
        taken.insert(0, seg)
        m -= seg[2]
    return taken


def _join(front: list, back: list) -> list:
    """front followed by back, merging the two segments at the seam when
    they are contiguous in the source."""
    if front and back:
        loc, start, m, d = front[-1]
        loc2, start2, m2, d2 = back[0]
        seam = start + m == start2 if d > 0 else start2 + m2 == start
        if loc == loc2 and d == d2 and seam:
            merged = (loc, min(start, start2), m + m2, d)
            return front[:-1] + [merged] + back[1:]
    return front + back


def _reverse(queue: list) -> list:
    """The same segments read from the other end of the region."""
    return [(loc, start, m, -d) for (loc, start, m, d) in reversed(queue)]


class _PLBuilder:
    """Tracks h by region queues: for each fixed region of the star (the
    center, each cell, each tail), the ordered source segments that h maps
    onto it.

    An edge move of amount d > 0 takes the segments holding the last d of
    mass of the parent's region and puts them, in order, in front of the
    child's; d < 0 moves the child's first -d back behind the parent's.
    Every star edge joins the end of its parent's region to the start of
    its child's, except at the center, which meets every ray at pool
    coordinate 0: its queue is stored reversed, from pool coordinate
    ``center_mass`` down to 0, so the same rule holds there.
    """

    def __init__(self, star: RayStar):
        self.star = star
        self.queues = {
            v: [(loc, lo, hi - lo, One)]
            for v, (loc, lo, hi) in star.node_intervals.items()
        }
        center = star.center_id()
        self.queues[center] = _reverse(self.queues[center])

    def apply_edge_move(self, move: BalloonMove):
        parent, child = move.edge
        if self.star.to_tree().parent.get(child) != parent:
            raise TreeMismatchError(f"edge {move.edge!r} is not a star edge")
        q = self.queues
        if move.amount > 0:
            q[child] = _join(_take_back(q[parent], move.amount), q[child])
        elif move.amount < 0:
            q[parent] = _join(q[parent], _take_front(q[child], -move.amount))

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
        for v, (loc, lo, hi) in star.node_intervals.items():
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
                raise ArithmeticError(
                    "normalization requires restored block masses"
                )
            ends[loc] = hi
        pieces = [
            _inverse_piece(loc, *piece)
            for loc, q in enumerate(laid)
            for piece in _merge_pieces(q)
        ]
        pieces.sort(key=lambda p: (p.src, p.lo))
        reached = {loc: Zero for loc in ends}
        for p in pieces:
            if p.lo != reached[p.src]:
                raise ArithmeticError("realized map is not a bijection")
            reached[p.src] = p.hi
        if reached != ends:
            raise ArithmeticError("realized map is not a bijection")
        return PLMap(star, tuple(pieces))


def realize_word(star: RayStar, word: MoveWord) -> PLMap:
    """Piecewise-linear map whose block-level action and edge fluxes are
    those of the (measure-preserving) word."""
    tree = star.to_tree()
    if word.tree != tree:
        raise TreeMismatchError("word does not live on the star's tree")
    builder = _PLBuilder(star)
    runner = _Runner(word.base)
    for mv in word.moves:
        edge_moves = [mv]
        if isinstance(mv, Rearrange):
            edge_moves = rearrange_to_moves(tree, runner, mv.support, mv.masses)
        runner.apply(mv)
        for sub in edge_moves:
            builder.apply_edge_move(sub)
    if not _preserves(word, runner):
        raise ChargeUndefinedError("only measure-preserving words realize")
    return builder.to_plmap()


def charge_from_definition(star: RayStar, h: PLMap, cut) -> EndCharge:
    """End charge read off the raw definition: for each ray end, with C
    the tail beyond the cut, mass(C - h(C)) - mass(h(C) - C)."""
    T = as_frac(cut)
    if T <= h.last_breakpoint():
        raise CutTooShallowError(
            f"cut {T} not beyond the last breakpoint {h.last_breakpoint()}"
        )
    values = {}
    for i in range(star.ray_count):
        length = star.ray_length(i)
        if T >= length:
            values[star.end_id(i)] = Zero
            continue
        region = [(i, T, length)]
        image = image_intervals(h, region)
        gained = iset_mass(iset_subtract(region, image))
        lost = iset_mass(iset_subtract(image, region))
        values[star.end_id(i)] = gained - lost
    return EndCharge(star.to_tree(), values)


def compare_oracle(star: RayStar, word: MoveWord, cut=None) -> bool:
    """Exact agreement of the flux charge and the set-difference charge."""
    h = realize_word(star, word)
    T = as_frac(cut) if cut is not None else h.last_breakpoint() + 1
    return charge_from_definition(star, h, T) == charge_of_word(word)
