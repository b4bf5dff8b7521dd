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
        t = self.tails[i]
        if is_inf(t):
            return INF
        return self.bounds(i)[-1] + t

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
            if p.src == loc and p.lo <= x and (is_inf(p.hi) or x < p.hi):
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


def iset_normalize(iset):
    by_loc: dict = {}
    for (loc, lo, hi) in iset:
        if not is_inf(hi) and hi <= lo:
            continue
        by_loc.setdefault(loc, []).append((lo, hi))
    out = []
    for loc in sorted(by_loc):
        ivs = sorted(by_loc[loc], key=lambda t: t[0])
        merged = [list(ivs[0])]
        for lo, hi in ivs[1:]:
            if is_inf(merged[-1][1]) or lo <= merged[-1][1]:
                if is_inf(hi) or (
                    not is_inf(merged[-1][1]) and hi > merged[-1][1]
                ):
                    merged[-1][1] = hi
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
            if bl != loc:
                continue
            nxt = []
            for (l, h) in parts:
                # overlap (max(l, blo), min(h, bhi))
                o_lo = max(l, blo)
                o_hi = h if is_inf(bhi) else (bhi if is_inf(h) else min(h, bhi))
                if is_inf(o_hi) and not is_inf(h):
                    o_hi = h
                if not (o_lo < o_hi or (is_inf(o_hi) and (is_inf(h) or o_lo < h))):
                    nxt.append((l, h))
                    continue
                if l < o_lo:
                    nxt.append((l, o_lo))
                if not is_inf(o_hi) and (is_inf(h) or o_hi < h):
                    nxt.append((o_hi, h))
            parts = nxt
        out.extend((loc, l, h) for (l, h) in parts)
    return iset_normalize(out)


def iset_intersect(a, b):
    out = []
    for (loc, lo, hi) in iset_normalize(a):
        for (bl, blo, bhi) in iset_normalize(b):
            if bl != loc:
                continue
            o_lo = max(lo, blo)
            if is_inf(hi):
                o_hi = bhi
            elif is_inf(bhi):
                o_hi = hi
            else:
                o_hi = min(hi, bhi)
            if is_inf(o_hi) or o_lo < o_hi:
                out.append((loc, o_lo, o_hi))
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
            if p.src != loc:
                continue
            o_lo = max(p.lo, lo)
            if is_inf(p.hi):
                o_hi = hi
            elif is_inf(hi):
                o_hi = p.hi
            else:
                o_hi = min(p.hi, hi)
            if not is_inf(o_hi) and o_lo >= o_hi:
                continue
            if p.slope > 0:
                i_lo = p.a + p.slope * o_lo
                i_hi = INF if is_inf(o_hi) else p.a + p.slope * o_hi
            else:
                i_lo = p.a + p.slope * o_hi  # o_hi finite: negative slopes
                i_hi = p.a + p.slope * o_lo  # only occur on bounded pieces
            out.append((p.dst, i_lo, i_hi))
    return iset_normalize(out)


def invert_plmap(h: PLMap) -> PLMap:
    pieces = []
    for p in h.pieces:
        if p.slope > 0:
            i_lo = p.a + p.slope * p.lo
            i_hi = INF if is_inf(p.hi) else p.a + p.slope * p.hi
        else:
            i_lo = p.a + p.slope * p.hi
            i_hi = p.a + p.slope * p.lo
        pieces.append(
            Piece(p.dst, i_lo, i_hi, p.src, -p.a / p.slope, 1 / p.slope)
        )
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
            p_lo = Zero if (is_inf(hi) or hi >= 0) else -hi
            p_hi = -lo
            for (qlo, qhi, dst, a, s) in self.q[self.pool]:
                o0 = max(qlo, p_lo)
                o1 = qhi if is_inf(p_hi) else min(qhi, p_hi)
                if o0 < o1:
                    segs.append((-o1, -o0, dst, a, -s))
        if is_inf(hi) or hi > 0:
            r_lo = lo if lo > 0 else Zero
            for (qlo, qhi, dst, a, s) in self.q[ray]:
                o0 = max(qlo, r_lo)
                if is_inf(qhi):
                    o1 = hi
                elif is_inf(hi):
                    o1 = qhi
                else:
                    o1 = min(qhi, hi)
                if is_inf(o1) or o0 < o1:
                    segs.append((o0, o1, dst, a, s))
        segs.sort(key=lambda t: t[0])
        return segs

    def _splice_loc(self, loc: int, x0: Fraction, x1: ExtMass, inserts):
        kept = []
        for (lo, hi, dst, a, s) in self.q[loc]:
            if lo < x0:
                left_hi = x0 if (is_inf(hi) or hi > x0) else hi
                if lo < left_hi:
                    kept.append((lo, left_hi, dst, a, s))
            if not is_inf(x1):
                r_lo = max(lo, x1)
                if is_inf(hi) or r_lo < hi:
                    if is_inf(hi) or hi > x1:
                        kept.append((r_lo, hi, dst, a, s))
        kept.extend(inserts)
        kept.sort(key=lambda t: t[0])
        merged = []
        for piece in kept:
            if merged:
                (lo, hi, dst, a, s) = merged[-1]
                (lo2, hi2, dst2, a2, s2) = piece
                if (
                    not is_inf(hi)
                    and hi == lo2
                    and dst == dst2
                    and a == a2
                    and s == s2
                ):
                    merged[-1] = (lo, hi2, dst, a, s)
                    continue
            merged.append(piece)
        self.q[loc] = merged

    def _splice_line(self, ray: int, u: Fraction, v: ExtMass, line_pieces):
        pool_ins = []
        ray_ins = []
        for (t0, t1, dst, a, s) in line_pieces:
            if t0 < 0:
                cut = t1 if (not is_inf(t1) and t1 <= 0) else Zero
                # pool part (t0, cut): pool coords (-cut, -t0), affine flips
                pool_ins.append((-cut, -t0, dst, a, -s))
            start = t0 if t0 > 0 else Zero
            if is_inf(t1) or t1 > start:
                if is_inf(t1) or t1 > 0:
                    ray_ins.append((start, t1, dst, a, s))
        if u < 0:
            p0 = Zero if (is_inf(v) or v >= 0) else -v
            self._splice_loc(self.pool, p0, -u, pool_ins)
        if is_inf(v) or v > 0:
            r0 = u if u > 0 else Zero
            self._splice_loc(ray, r0, v, ray_ins)

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
            i0 = pa + ps * d0
            i1 = INF if is_inf(d1) else pa + ps * d1
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
        inside = []
        total = Zero
        for (plo, phi, dst, a, s) in self.q[loc]:
            o_lo = max(plo, lo)
            if is_inf(phi):
                o_hi = hi
            elif is_inf(hi):
                o_hi = phi
            else:
                o_hi = min(phi, hi)
            if not is_inf(o_hi) and o_lo >= o_hi:
                continue
            inside.append((o_lo, o_hi, dst, a, s))
            if not is_inf(o_hi):
                total += abs(s) * (o_hi - o_lo)
        if is_inf(hi):
            density = One
        else:
            density = total / (hi - lo)
        new_pieces = []
        acc = lo
        for (o_lo, o_hi, dst, a, s) in inside:
            if is_inf(o_hi):
                new_pieces.append((acc, INF, dst, a + s * o_lo - acc, One))
                acc = INF
                break
            width = abs(s) * (o_hi - o_lo) / density
            if width == 0:
                continue
            if s > 0:
                new_pieces.append(
                    (acc, acc + width, dst, a + s * o_lo - density * acc, density)
                )
            else:
                new_pieces.append(
                    (acc, acc + width, dst, a + s * o_lo + density * acc, -density)
                )
            acc += width
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
                acc = lo
                for (plo, phi, dst, a, s) in self.q[loc]:
                    o_lo = max(plo, lo)
                    if is_inf(phi):
                        o_hi = hi
                    elif is_inf(hi):
                        o_hi = phi
                    else:
                        o_hi = min(phi, hi)
                    if not is_inf(o_hi) and o_lo >= o_hi:
                        continue
                    if is_inf(o_hi):
                        new_pieces.append(
                            (acc, INF, dst, a + s * o_lo - acc, One)
                        )
                        acc = INF
                        break
                    mlen = abs(s) * (o_hi - o_lo)
                    if s > 0:
                        new_pieces.append(
                            (acc, acc + mlen, dst, a + s * o_lo - acc, One)
                        )
                    else:
                        new_pieces.append(
                            (acc, acc + mlen, dst, a + s * o_lo + acc, -One)
                        )
                    acc += mlen
                if acc != hi:
                    raise ArithmeticError(
                        "normalization requires restored block masses"
                    )
            merged = []
            for piece in new_pieces:
                if merged:
                    (l1, h1, d1, a1, s1) = merged[-1]
                    (l2, h2, d2, a2, s2) = piece
                    if (
                        not is_inf(h1)
                        and h1 == l2
                        and d1 == d2
                        and a1 == a2
                        and s1 == s2
                    ):
                        merged[-1] = (l1, h2, d1, a1, s1)
                        continue
                merged.append(piece)
            self.q[loc] = merged

    def to_plmap(self) -> PLMap:
        pieces = []
        for loc in range(self.star.ray_count + 1):
            for (lo, hi, dst, a, s) in self.q[loc]:
                if s > 0:
                    i_lo = a + s * lo
                    i_hi = INF if is_inf(hi) else a + s * hi
                else:
                    i_lo = a + s * hi
                    i_hi = a + s * lo
                pieces.append(Piece(dst, i_lo, i_hi, loc, -a / s, 1 / s))
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
        if not is_inf(length) and T >= length:
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
