"""Concrete 1-D realization: piecewise-linear maps on a star of rays.

A ray star is a center block with ``r`` rays; ray ``i`` carries ``D``
cells of given masses and a tail beyond them.  Everything is coordinatized
by cumulative mass along the ray (measure coordinate), in which the
reference measure is unit-density, so a map preserves measure exactly
when its pieces have unit slope.

A word on the associated balloon tree is realized move by move: each edge
transfer becomes a two-piece map that slides the region boundary's
preimage to the matching mass quantile.  Transfers through the center use
a pool segment standing in for the center block; pieces crossing the
pool/ray junction model the mixing the center performs, which is treated
as a black box (only the rays are honest 1-D geometry).  The end charge
of the realized map is then recomputed from the raw definition - the
masses of ``C - h(C)`` and ``h(C) - C`` for a tail region ``C`` - by
exact interval arithmetic, giving an oracle fully independent of the
flux accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

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
    _Runner,
    charge_of_word,
    is_measure_preserving,
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

    # node ids of the associated balloon tree
    def center_id(self) -> str:
        return "c"

    def cell_id(self, i: int, k: int) -> str:
        return f"r{i}c{k}"

    def end_id(self, i: int) -> str:
        return f"r{i}e"

    def to_tree(self) -> BalloonTree:
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
        if v == star.center_id():
            out.append((star.ray_count, Zero, star.center_mass))
            continue
        for i in range(star.ray_count):
            bounds = star.bounds(i)
            if v == star.end_id(i):
                out.append((i, bounds[-1], star.ray_length(i)))
                break
            hit = False
            for k in range(star.depth):
                if v == star.cell_id(i, k):
                    out.append((i, bounds[k], bounds[k + 1]))
                    hit = True
                    break
            if hit:
                break
        else:
            raise TreeMismatchError(f"node {v!r} is not part of the star")
    return iset_normalize(out)


# -- realization --------------------------------------------------------------


def _lay_out(pieces, acc: Fraction, density: Fraction):
    """Lay (lo, hi, dst, a, s) pieces end to end from ``acc`` at uniform
    ``density``, each keeping its mass and orientation; an infinite piece
    keeps unit slope.  Returns the new pieces and the point where they end."""
    out = []
    for (o0, o1, dst, a, s) in pieces:
        if is_inf(o1):
            out.append((acc, INF, dst, a + s * o0 - acc, One))
            return out, INF
        width = abs(s) * (o1 - o0) / density
        d = density if s > 0 else -density
        out.append((acc, acc + width, dst, a + s * o0 - d * acc, d))
        acc += width
    return out, acc


class _PLBuilder:
    """Tracks the inverse map q = h^{-1} as per-location piece lists."""

    def __init__(self, star: RayStar):
        self.star = star
        self.pool = star.ray_count
        self.bounds = [star.bounds(i) for i in range(star.ray_count)]
        lengths = [star.ray_length(i) for i in range(star.ray_count)]
        lengths.append(star.center_mass)
        self.lengths = lengths
        # edge -> (ray, u, b, v, regions re-combed after the move): a move
        # across the edge slides line point b between (u, b) and (b, v)
        self.edge_moves = {}
        for i, bounds in enumerate(self.bounds):
            ids = (
                [star.center_id()]
                + [star.cell_id(i, k) for k in range(star.depth)]
                + [star.end_id(i)]
            )
            points = [-star.center_mass] + bounds + [lengths[i]]
            for k in range(star.depth + 1):
                u, b, v = points[k : k + 3]
                # the center's own region lives on the pool line
                first = (self.pool, Zero, star.center_mass) if k == 0 else (i, u, b)
                self.edge_moves[(ids[k], ids[k + 1])] = (
                    i, u, b, v, (first, (i, b, v))
                )
        # identity start: one piece per location
        self.q = [
            [(Zero, lengths[loc], loc, Zero, One)]
            for loc in range(star.ray_count + 1)
        ]

    # line coordinate for ray i: t >= 0 is ray coordinate t, t < 0 is pool
    # coordinate -t.  All primitives act on one such line.

    def _line_view(self, ray: int, lo: Fraction, hi: ExtMass):
        """q pieces over the line interval [lo, hi), as (t0, t1, dst, a, s)
        with the affine in the line coordinate, ascending and contiguous."""
        segs = []
        if lo < 0:
            p_lo = Zero if hi >= 0 else -hi
            for (o0, o1, dst, a, s) in self._clipped(self.pool, p_lo, -lo):
                segs.append((-o1, -o0, dst, a, -s))
        if hi > 0:
            segs.extend(self._clipped(ray, max(lo, Zero), hi))
        segs.sort(key=lambda t: t[0])
        return segs

    def _clipped(self, loc: int, lo: Fraction, hi: ExtMass):
        """q pieces of one location cut to [lo, hi)."""
        out = []
        for (qlo, qhi, dst, a, s) in self.q[loc]:
            o = _clip(qlo, qhi, lo, hi)
            if o:
                out.append((*o, dst, a, s))
        return out

    def _splice_loc(self, loc: int, x0: Fraction, x1: ExtMass, inserts):
        kept = [
            (*o, dst, a, s)
            for (lo, hi, dst, a, s) in self.q[loc]
            for o in _outside(lo, hi, x0, x1)
        ]
        kept.extend(inserts)
        kept.sort(key=lambda t: t[0])
        self.q[loc] = _merge_pieces(kept)

    def _splice_line(self, ray: int, u: Fraction, v: ExtMass, line_pieces):
        pool_ins = []
        ray_ins = []
        for (t0, t1, dst, a, s) in line_pieces:
            if t0 < 0:
                cut = min(t1, Zero)
                # pool part (t0, cut): pool coords (-cut, -t0), affine flips
                pool_ins.append((-cut, -t0, dst, a, -s))
            start = max(t0, Zero)
            if t1 > start:
                ray_ins.append((start, t1, dst, a, s))
        if u < 0:
            self._splice_loc(self.pool, Zero if v >= 0 else -v, -u, pool_ins)
        if v > 0:
            self._splice_loc(ray, max(u, Zero), v, ray_ins)

    def _sigma_between(self, ray: int, u: Fraction, x: Fraction) -> Fraction:
        """Current mass of the line interval (u, x)."""
        total = Zero
        for (t0, t1, _, _, s) in self._line_view(ray, u, x):
            total += abs(s) * (t1 - t0)
        return total

    def _quantile(self, ray: int, u: Fraction, target: Fraction) -> Fraction:
        """The line point b* with current mass (u, b*) equal to target."""
        acc = Zero
        for (t0, t1, _, _, s) in self._line_view(ray, u, self.lengths[ray]):
            d = abs(s)
            if is_inf(t1):
                return t0 + (target - acc) / d
            seg = d * (t1 - t0)
            if acc + seg >= target:
                return t0 + (target - acc) / d
            acc += seg
        raise ArithmeticError("quantile beyond the available mass")

    def primitive(self, ray: int, u: Fraction, b: Fraction, v: ExtMass, delta: Fraction):
        """Move ``delta`` of current mass across line point b, between the
        regions (u, b) and (b, v), fixing u and v."""
        left = self._sigma_between(ray, u, b)
        bstar = self._quantile(ray, u, left - delta)
        if bstar == b:
            return
        # two-piece boundary slide phi^{-1}: (u,b)->(u,b*), (b,v)->(b*,v)
        s1 = (bstar - u) / (b - u)
        a1 = u - s1 * u
        if is_inf(v):
            s2 = One
            a2 = bstar - b
        else:
            s2 = (v - bstar) / (v - b)
            a2 = bstar - s2 * b
        new_pieces = []
        for (d0, d1, pa, ps) in ((u, b, a1, s1), (b, v, a2, s2)):
            i0, i1 = _image(pa, ps, d0, d1)
            for (t0, t1, dst, qa, qs) in self._line_view(ray, i0, i1):
                x0 = (t0 - pa) / ps
                x1 = INF if is_inf(t1) else (t1 - pa) / ps
                new_pieces.append((x0, x1, dst, qa + qs * pa, qs * ps))
        self._splice_line(ray, u, v, new_pieces)

    def comb_region(self, loc: int, lo: Fraction, hi: ExtMass):
        """Re-comb one fixed region to uniform density.

        The interior distribution of a block is below the model's
        resolution, so any representative of the mixing inside it is as
        good as another; keeping it uniform after every move also keeps
        all rational data small.  Region boundary masses are untouched.
        """
        inside = self._clipped(loc, lo, hi)
        if is_inf(hi):
            density = One
        else:
            mass = sum(
                (abs(s) * (o1 - o0) for (o0, o1, _, _, s) in inside), Zero
            )
            density = mass / (hi - lo)
        new_pieces, _ = _lay_out(inside, lo, density)
        self._splice_loc(loc, lo, hi, new_pieces)

    def apply_edge_move(self, move: BalloonMove):
        try:
            ray, u, b, v, regions = self.edge_moves[move.edge]
        except KeyError:
            raise TreeMismatchError(
                f"edge {move.edge!r} is not a star edge"
            ) from None
        self.primitive(ray, u, b, v, move.amount)
        for (loc, lo, hi) in regions:
            self.comb_region(loc, lo, hi)

    def _regions(self, loc: int):
        if loc == self.pool:
            return [(Zero, self.star.center_mass)]
        bounds = self.bounds[loc]
        out = list(zip(bounds, bounds[1:]))
        out.append((bounds[-1], self.lengths[loc]))
        return out

    def normalize(self):
        """Comb the final within-region distortion back to unit density.

        Valid once the word has restored every block mass: each fixed
        region then holds exactly its reference mass, and the unique
        monotone mass transport on the region is PL with rational data.
        The result is a genuinely measure-preserving map (all pieces of
        unit slope), with honest eventual translations on the tails.
        """
        for loc in range(self.star.ray_count + 1):
            new_pieces = []
            for (lo, hi) in self._regions(loc):
                laid, end = _lay_out(self._clipped(loc, lo, hi), lo, One)
                if end != hi:
                    raise ArithmeticError(
                        "normalization requires restored block masses"
                    )
                new_pieces.extend(laid)
            self.q[loc] = _merge_pieces(new_pieces)

    def to_plmap(self) -> PLMap:
        pieces = []
        for loc in range(self.star.ray_count + 1):
            for (lo, hi, dst, a, s) in self.q[loc]:
                pieces.append(_inverse_piece(loc, lo, hi, dst, a, s))
        pieces.sort(key=lambda q: (q.src, q.lo))
        for loc in range(self.star.ray_count + 1):
            cover = [p for p in pieces if p.src == loc]
            x = Zero
            for p in cover:
                if p.lo != x:
                    raise ArithmeticError("realized map is not a bijection")
                x = p.hi
            if x != self.lengths[loc]:
                raise ArithmeticError("realized map is not a bijection")
        return PLMap(self.star, tuple(pieces))


def realize_word(star: RayStar, word: MoveWord) -> PLMap:
    """Piecewise-linear map whose block-level action and edge fluxes are
    those of the (measure-preserving) word."""
    tree = star.to_tree()
    if word.tree != tree:
        raise TreeMismatchError("word does not live on the star's tree")
    if not is_measure_preserving(word):
        raise ChargeUndefinedError("only measure-preserving words realize")
    builder = _PLBuilder(star)
    runner = _Runner(word.base)
    for mv in word.moves:
        if isinstance(mv, Rearrange):
            submoves = rearrange_to_moves(
                tree, runner.state(), mv.support, mv.masses
            )
            for sub in submoves:
                builder.apply_edge_move(sub)
            runner.apply(mv)
        else:
            builder.apply_edge_move(mv)
            runner.apply(mv)
    builder.normalize()
    return builder.to_plmap()


def charge_from_definition(star: RayStar, h: PLMap, cut) -> EndCharge:
    """End charge read off the raw definition: for each ray end, with C
    the tail beyond the cut, mass(C - h(C)) - mass(h(C) - C)."""
    T = as_frac(cut)
    if T <= h.last_breakpoint():
        raise CutTooShallowError(
            f"cut {T} not beyond the last breakpoint {h.last_breakpoint()}"
        )
    tree = star.to_tree()
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
    return EndCharge(tree, values)


def compare_oracle(star: RayStar, word: MoveWord, cut=None) -> bool:
    """Exact agreement of the flux charge and the set-difference charge."""
    h = realize_word(star, word)
    T = as_frac(cut) if cut is not None else h.last_breakpoint() + 1
    return charge_from_definition(star, h, T) == charge_of_word(word)
