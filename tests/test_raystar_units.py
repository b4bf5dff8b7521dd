"""realize_word's integer segment lists and region counts, checked
three ways.

* Against a builder with one queue per region: ``_FractionBuilder``
  below moves segments across every edge, on ``Fraction`` starts and
  masses, each shuffle decomposed by
  ``shuffle_reference._ref_rearrangement_moves``, a Fraction copy of the
  package's decomposition order.  ``realize_word`` must give the same
  pieces, compared by the ``repr`` of every field, or fail with the same
  error at the same ``move_index``, so a value that changes type or lands
  one unit off shows.
* By kernel calls: segments move only across the center, so the segment
  kernels run once per nonzero step on a center edge and never for a
  move inside a ray.
* By call graph: cProfile records which functions each function calls,
  and the queue kernels must call nothing in ``fractions``.  A move's
  amount is read once, by the runner that checks it, and the builder
  shifts by that int; a Fraction that creeps back into the lists fails
  here, where a timing could not tell it from noise.
"""

import cProfile
import fractions
import pstats
import sys
from fractions import Fraction
from random import Random

import pytest

import endflow.raystar as raystar
from endflow.errors import (
    ChargeUndefinedError,
    CutTooShallowError,
    RealizationError,
    TreeMismatchError,
)
from endflow.extmath import INF, is_inf
from endflow.gen import random_preserving_word, random_star, small_fraction
from endflow.measure import MeasureState, base_state
from endflow.raystar import (
    Piece,
    PLMap,
    RayStar,
    _join,
    _PLBuilder,
    _split,
    _take_back,
    _take_front,
    charge_from_definition,
    oracle_cuts,
    realize_word,
    region_intervals,
)
from endflow.serialize import (
    star_from_json,
    star_to_json,
    word_from_json,
    word_to_json,
)
from endflow.transport import (
    BalloonMove,
    MoveWord,
    Rearrange,
    _preserves,
    _Runner,
    _word_unit,
    charge_of_word,
    route,
)

from shuffle_reference import _ref_rearrangement_moves

Zero = Fraction(0)
One = Fraction(1)

# -- the Fraction builder -----------------------------------------------------


def _ref_image(a, s, lo, hi):
    """Image of [lo, hi) under x -> a + s * x.  Negative slopes occur only
    on bounded pieces."""
    if s > 0:
        return a + s * lo, INF if is_inf(hi) else a + s * hi
    return a + s * hi, a + s * lo


def _ref_inverse_piece(src, lo, hi, dst, a, s) -> Piece:
    """The inverse of the affine piece sending [lo, hi) on src to dst."""
    i_lo, i_hi = _ref_image(a, s, lo, hi)
    return Piece(dst, i_lo, i_hi, src, -a / s, 1 / s)


def _ref_merge_pieces(pieces):
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


def _ref_split(seg, m: Fraction):
    """Cut a segment after mass m from its front: (front, rest)."""
    loc, start, mass, d = seg
    if d > 0:
        return (loc, start, m, d), (loc, start + m, mass - m, d)
    return (loc, start + mass - m, m, d), (loc, start, mass - m, d)


def _ref_take_front(queue: list, m: Fraction) -> list:
    """Remove and return the segments holding the queue's first m of mass."""
    taken = []
    while m:
        if not queue:
            raise RealizationError(
                "move takes more mass than the region holds"
            )
        seg = queue.pop(0)
        if seg[2] > m:
            seg, rest = _ref_split(seg, m)
            queue.insert(0, rest)
        taken.append(seg)
        m -= seg[2]
    return taken


def _ref_take_back(queue: list, m: Fraction) -> list:
    """Remove and return the segments holding the queue's last m of mass."""
    taken = []
    while m:
        if not queue:
            raise RealizationError(
                "move takes more mass than the region holds"
            )
        seg = queue.pop()
        if seg[2] > m:
            rest, seg = _ref_split(seg, seg[2] - m)
            queue.append(rest)
        taken.insert(0, seg)
        m -= seg[2]
    return taken


def _ref_join(front: list, back: list) -> list:
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


def _ref_reverse(queue: list) -> list:
    """The same segments read from the other end of the region."""
    return [(loc, start, m, -d) for (loc, start, m, d) in reversed(queue)]


class _FractionBuilder:
    """The region-queue builder on Fraction starts and masses.

    Tracks h by region queues: for each fixed region of the star (the
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
        self.queues[center] = _ref_reverse(self.queues[center])

    def apply_edge_move(self, move: BalloonMove):
        parent, child = move.edge
        if self.star.to_tree().parent.get(child) != parent:
            raise TreeMismatchError(f"edge {move.edge!r} is not a star edge")
        q = self.queues
        if move.amount > 0:
            taken = _ref_take_back(q[parent], move.amount)
            q[child] = _ref_join(taken, q[child])
        elif move.amount < 0:
            taken = _ref_take_front(q[child], -move.amount)
            q[parent] = _ref_join(q[parent], taken)

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
                segs = _ref_reverse(segs)
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
        pieces = [
            _ref_inverse_piece(loc, *piece)
            for loc, q in enumerate(laid)
            for piece in _ref_merge_pieces(q)
        ]
        pieces.sort(key=lambda p: (p.src, p.lo))
        reached = {loc: Zero for loc in ends}
        for p in pieces:
            if p.lo != reached[p.src]:
                raise RealizationError("realized map is not a bijection")
            reached[p.src] = p.hi
        if reached != ends:
            raise RealizationError("realized map is not a bijection")
        return PLMap(star, tuple(pieces))


def _fraction_realize(star: RayStar, word: MoveWord) -> PLMap:
    """realize_word on the Fraction builder, each shuffle decomposed by
    ``_ref_rearrangement_moves``."""
    tree = star.to_tree()
    if word.tree != tree:
        raise TreeMismatchError("word does not live on the star's tree")
    builder = _FractionBuilder(star)
    runner = _Runner(word.base)
    for i, mv in enumerate(word.moves):
        replaced = runner.apply(mv)
        edge_moves = [mv]
        if isinstance(mv, Rearrange):
            anchor = tree.top(mv.support)
            edge_moves = _ref_rearrangement_moves(
                tree, anchor, replaced, mv.masses
            )
        try:
            for sub in edge_moves:
                builder.apply_edge_move(sub)
        except RealizationError as e:
            e.move_index = i
            raise
    if not _preserves(word, runner):
        raise ChargeUndefinedError("only measure-preserving words realize")
    return builder.to_plmap()


# -- corpus -------------------------------------------------------------------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
DENOMINATORS = PRIMES + (1000003,)


def _star(rng, rays, depth, finite=()):
    """Seeded cells and center; the rays in ``finite`` end in a finite
    tail of mass above 4."""
    cells = tuple(
        tuple(small_fraction(rng) for _ in range(depth)) for _ in range(rays)
    )
    tails = tuple(
        small_fraction(rng) + 4 if i in finite else INF for i in range(rays)
    )
    return RayStar(small_fraction(rng, 9, 2), cells, tails)


def _infinite_ends(star):
    return [
        star.end_id(i) for i in range(star.ray_count) if is_inf(star.tails[i])
    ]


def _prime_word(rng, star, base=None):
    """Tail-to-tail transfers of k/p for each denominator p, each partly
    sent back: every move out of a tail is a negative edge move."""
    tree = star.to_tree()
    ends = _infinite_ends(star)
    moves = []
    for p in DENOMINATORS:
        src, dst = rng.sample(ends, 2)
        x = Fraction(rng.randint(1, 2 * p), p)
        moves += route(tree, src, dst, x)
        moves += route(tree, dst, src, x / rng.choice((2, 3)))
    return MoveWord(tree, base or base_state(tree), tuple(moves))


def _transient_word(rng, star):
    """Mass borrowed from every finite tail and given back, with a random
    word of transfers and shuffles in between."""
    tree = star.to_tree()
    mu = base_state(tree)
    out = []
    for i in range(star.ray_count):
        if not is_inf(star.tails[i]):
            dst = rng.choice(_infinite_ends(star))
            out += route(tree, star.end_id(i), dst, small_fraction(rng, 3, 7))
    back = [BalloonMove(m.edge, -m.amount) for m in reversed(out)]
    inner = random_preserving_word(rng, tree, mu, transfers=3, shuffles=4)
    return MoveWord(tree, mu, tuple(out) + inner.moves + tuple(back))


def _wide_shuffle_word(rng, star, base=None):
    """A shuffle over the center and the first two cells of every ray, a
    transfer while it holds, and the shuffle undone."""
    tree = star.to_tree()
    mu = base or base_state(tree)
    support = frozenset(
        [star.center_id()]
        + [star.cell_id(i, k) for i in range(star.ray_count) for k in (0, 1)]
    )
    order = sorted(support)
    total = sum(mu.blocks[v] for v in order)
    weights = [rng.randint(1, 9) for _ in order]
    masses = {v: total * w / sum(weights) for v, w in zip(order, weights)}
    undo = Rearrange(support, {v: mu.blocks[v] for v in order})
    transfer = route(tree, star.end_id(0), star.end_id(1), Fraction(7, 13))
    return MoveWord(tree, mu, (Rearrange(support, masses), *transfer, undo))


def _scaled_base(rng, star, lighter):
    """Block masses off the reference ones, on new denominators: below
    them (the queues stay fed) or over twice them (a shuffle may then run
    a queue dry, and both builders must fail alike)."""
    tree = star.to_tree()
    blocks = {}
    for v, m in tree.weights.items():
        p = rng.choice(PRIMES[2:])
        blocks[v] = m * (p - 1 if lighter else 2 * p + 1) / p
    return MeasureState(tree, blocks, dict(tree.tails))


def _overdraw_word(rng, star, edge, amount, heavier):
    """A word based off the star's measure: ``heavier`` (a node id) holds
    three times its mass in the base, so the runner lets ``amount`` across
    ``edge`` take twice the star's mass of it, which the builder refuses.
    A transfer between two infinite ends goes first, so the refused move
    is move 1, and the move is undone after it."""
    tree = star.to_tree()
    blocks, tails = dict(tree.weights), dict(tree.tails)
    for masses in (blocks, tails):
        if heavier in masses:
            masses[heavier] *= 3
    src, dst = _infinite_ends(star)[:2]
    first = route(tree, src, dst, small_fraction(rng, 3, 7))[0]
    moves = (first, BalloonMove(edge, amount), BalloonMove(edge, -amount))
    back = BalloonMove(first.edge, -first.amount)
    base = MeasureState(tree, blocks, tails)
    return MoveWord(tree, base, moves + (back,))


def _corpus():
    rng = Random("raystar-units")
    for k in range(4):
        star = _star(rng, 3 + k % 2, 4, finite={0} if k % 2 else ())
        yield f"primes{k}", star, _prime_word(rng, star)
        base = _scaled_base(rng, star, lighter=True)
        yield f"primes_other_base{k}", star, _prime_word(rng, star, base)
    for k in range(4):
        star = _star(rng, 4, 3, finite={1, 3})
        yield f"finite_tails{k}", star, _transient_word(rng, star)
    for k in range(4):
        star = _star(rng, 3 + k, 3)
        yield f"wide_shuffle{k}", star, _wide_shuffle_word(rng, star)
        base = _scaled_base(rng, star, lighter=True)
        word = _wide_shuffle_word(rng, star, base)
        yield f"wide_shuffle_other_base{k}", star, word
    for k in range(6):
        star = _star(rng, 3, 3, finite={2})
        base = _scaled_base(rng, star, lighter=k % 2 == 0)
        word = random_preserving_word(
            rng, star.to_tree(), base, transfers=3, shuffles=4
        )
        yield f"random_base{k}", star, word
    for k in range(20):
        star = random_star(rng, max_rays=5, max_depth=5)
        tree = star.to_tree()
        word = random_preserving_word(
            rng,
            tree,
            base_state(tree),
            transfers=rng.randint(1, 8),
            shuffles=rng.randint(0, 4),
        )
        yield f"random{k}", star, word
    # a move inside a ray that overdraws an interior cell, and one that
    # overdraws a finite tail: the builder's counts refuse both
    star = _star(rng, 3, 4, finite={2})
    cell = star.cell_id(0, 1)
    yield "overdraw_cell", star, _overdraw_word(
        rng, star, (cell, star.cell_id(0, 2)), 2 * star.cells[0][1], cell
    )
    end = star.end_id(2)
    yield "overdraw_tail", star, _overdraw_word(
        rng, star, (star.cell_id(2, 3), end), -2 * star.tails[2], end
    )


CORPUS = list(_corpus())
FIELDS = ("src", "lo", "hi", "dst", "a", "slope")


def _outcome(realize, star, word):
    try:
        h = realize(star, word)
    except RealizationError as e:
        return (type(e).__name__, str(e), getattr(e, "move_index", None))
    return [tuple(repr(getattr(p, f)) for f in FIELDS) for p in h.pieces]


@pytest.mark.parametrize(
    "name, star, word", CORPUS, ids=[name for name, _, _ in CORPUS]
)
def test_integer_queues_match_the_fraction_builder(name, star, word):
    want = _outcome(_fraction_realize, star, word)
    assert _outcome(realize_word, star, word) == want


def test_corpus_holds_what_it_names():
    realized = {
        name: not isinstance(_outcome(realize_word, star, word), tuple)
        for name, star, word in CORPUS
    }
    assert all(
        ok
        for name, ok in realized.items()
        if not name.startswith(("random_", "overdraw_"))
    )
    assert not all(
        ok for name, ok in realized.items() if name.startswith("random_")
    ), "no random word ran a region dry"
    # each word based off the star's measure is refused at its move 1
    overdrawn = {
        name: _outcome(realize_word, star, word)
        for name, star, word in CORPUS
        if name.startswith("overdraw_")
    }
    refused = (
        "RealizationError", "move takes more mass than the region holds", 1
    )
    assert overdrawn == {
        "overdraw_cell": refused, "overdraw_tail": refused
    }
    amounts = [
        mv.amount
        for name, _, word in CORPUS
        if name.startswith("primes")
        for mv in word.moves
    ]
    assert all(
        any(x.denominator % p == 0 for x in amounts) for p in DENOMINATORS
    )
    assert any(x < 0 for x in amounts)
    supports = [
        mv.support
        for _, _, word in CORPUS
        for mv in word.moves
        if isinstance(mv, Rearrange)
    ]
    assert max(map(len, supports)) >= 9
    bases = [word.base != base_state(word.tree) for _, _, word in CORPUS]
    assert sum(bases) >= 8


# -- the layout on ints -------------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_int_layout_is_the_fraction_layout_in_units(seed):
    """The builder lays the star out by int prefix sums of its masses;
    scaled by its unit, that is ``RayStar.node_intervals``, key order
    included."""
    rng = Random(seed)
    rays = rng.randint(2, 5)
    finite = rng.sample(range(rays), rng.randint(0, rays))
    star = _star(rng, rays, rng.randint(1, 4), finite)
    unit = rng.choice((1, 2, 6, 35, 1000003))
    builder = _PLBuilder(star, unit)
    u = builder.unit
    want = star.node_intervals
    assert list(builder.intervals) == list(want)
    for v, (loc, lo, hi) in want.items():
        got = builder.intervals[v]
        assert got == (loc, lo * u, hi if is_inf(hi) else hi * u)
        assert all(type(x) is int for x in got[1:] if not is_inf(x))
    assert u % unit == 0
    assert all(
        u % x.denominator == 0
        for (_, lo, hi) in want.values()
        for x in (lo, hi)
        if not is_inf(x)
    )
    # a word based at the star's measure is laid out on its own unit
    tree = star.to_tree()
    word_unit = _word_unit(MoveWord(tree, base_state(tree), ()))
    assert _PLBuilder(star, word_unit).unit == word_unit
    for i in range(rays):
        assert star.ray_length(i) == want[star.end_id(i)][2]


def test_an_oracle_request_computes_no_fraction_interval():
    rng = Random("raystar-layout")
    star = _star(rng, 4, 6, finite=(2,))
    tree = star.to_tree()
    word = random_preserving_word(
        rng, tree, base_state(tree), transfers=4, shuffles=3
    )
    star = star_from_json(star_to_json(star))
    word = word_from_json(
        star.to_tree(), base_state(star.to_tree()), word_to_json(word)
    )
    h = realize_word(star, word)
    want = charge_of_word(word)
    for cut in oracle_cuts(h, 3):
        assert charge_from_definition(star, h, cut) == want
    assert "node_intervals" not in vars(star)
    # the pin would see it: a region query computes them
    region_intervals(star, [star.center_id()])
    assert "node_intervals" in vars(star)


# -- one oracle request does each job once ------------------------------------


def _request_docs(finite=()):
    """The documents of one oracle request: a 4-ray star of depth 32 and a
    word of ~300 moves."""
    rng = Random("raystar-once")
    star = _star(rng, 4, 32, finite)
    tree = star.to_tree()
    word = random_preserving_word(
        rng, tree, base_state(tree), transfers=6, shuffles=4
    )
    return star_to_json(star), word_to_json(word)


def _oracle_request(star_doc, word_doc, pieces=tuple):
    """Load, realize, read the flux charge and the definition at 3 cuts;
    the map read is made from the realized map's pieces, handed to
    ``pieces`` to hold."""
    star = star_from_json(star_doc)
    tree = star.to_tree()
    word = word_from_json(tree, base_state(tree), word_doc)
    h = PLMap(star, pieces(realize_word(star, word).pieces))
    want = charge_of_word(word)
    for cut in oracle_cuts(h, 3):
        assert charge_from_definition(star, h, cut) == want
    return star, h


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    return counted


def test_an_oracle_request_formats_each_cell_id_once(monkeypatch):
    docs = _request_docs()
    calls = {}
    counted = _counting(calls, "cell_id", RayStar.cell_id)
    monkeypatch.setattr(RayStar, "cell_id", staticmethod(counted))
    star, _ = _oracle_request(*docs)
    assert calls["cell_id"] == star.ray_count * star.depth == 4 * 32


def test_an_oracle_request_reads_the_base_blocks_in_once(monkeypatch):
    """The walk's runner reads the base blocks and tails in; the checks
    that the word preserves its base compare with the blocks it kept."""
    docs = _request_docs(finite=(2,))
    calls = {}
    counted = _counting(calls, "_in_all", _Runner._in_all)
    monkeypatch.setattr(_Runner, "_in_all", counted)
    _oracle_request(*docs)
    assert calls["_in_all"] == 2


class _CountedPieces(tuple):
    """Pieces that note the name of each function iterating them."""

    readers = []

    def __iter__(self):
        self.readers.append(sys._getframe(1).f_code.co_name)
        return super().__iter__()


def test_an_oracle_request_scans_for_the_last_breakpoint_once(monkeypatch):
    monkeypatch.setattr(_CountedPieces, "readers", [])
    _, h = _oracle_request(*_request_docs(), pieces=_CountedPieces)
    breakpoint_ = h.last_breakpoint()
    assert h.last_breakpoint() == breakpoint_
    # the map scanned its pieces when it was made, for the breakpoint and
    # for the ints the definition read at 3 cuts on 4 rays
    assert _CountedPieces.readers == ["__post_init__"]


def test_the_pieces_are_read_into_ints_once_per_map(monkeypatch):
    monkeypatch.setattr(_CountedPieces, "readers", [])
    star, h = _oracle_request(*_request_docs(finite=(2,)), pieces=_CountedPieces)
    kept = dict(vars(h))
    # the request checked 3 cuts against the flux charge; the breakpoint,
    # more cuts, and one off the map's unit, read on a finer one
    want = charge_from_definition(star, h, oracle_cuts(h, 1)[0])
    odd = h.last_breakpoint() + Fraction(1, 9973)
    for cut in oracle_cuts(h, 6) + [odd]:
        assert charge_from_definition(star, h, cut) == want
    assert h.unit % 9973 != 0
    assert _CountedPieces.readers == ["__post_init__"]
    assert vars(h) == kept


def test_a_map_is_read_on_its_own_tree_only():
    """A star of other ray lengths would read the map's pieces against
    the wrong tails."""
    star, h = _oracle_request(*_request_docs(finite=(2,)))
    cut = oracle_cuts(h, 1)[0]
    longer = RayStar(
        star.center_mass,
        star.cells,
        tuple(m if is_inf(m) else m + 1 for m in star.tails),
    )
    with pytest.raises(TreeMismatchError):
        charge_from_definition(longer, h, cut)
    # an equal star read from the same documents is the same tree
    same = star_from_json(star_to_json(star))
    assert same is not star
    assert charge_from_definition(same, h, cut) == charge_from_definition(
        star, h, cut
    )


def test_a_definition_read_normalizes_each_set_once_per_ray(monkeypatch):
    star, h = _oracle_request(*_request_docs())
    calls = {}
    counted = _counting(calls, "iset_normalize", raystar.iset_normalize)
    monkeypatch.setattr(raystar, "iset_normalize", counted)
    for cut in oracle_cuts(h, 3):
        calls.clear()
        charge_from_definition(star, h, cut)
        assert calls["iset_normalize"] <= star.ray_count


def _definition_by_fraction_sets(star, h, cut):
    """The definition read through the public Fraction interval sets."""
    values = {}
    for i in range(star.ray_count):
        length = star.ray_length(i)
        region = [(i, cut, length)]
        image = raystar.image_intervals(h, region)
        values[star.end_id(i)] = (
            Zero
            if cut >= length
            else raystar.iset_mass(raystar.iset_subtract(region, image))
            - raystar.iset_mass(raystar.iset_subtract(image, region))
        )
    return values


def test_the_int_view_reads_as_the_fraction_sets():
    star, h = _oracle_request(*_request_docs(finite=(1, 3)))
    first = h.last_breakpoint() + 1
    for cut in [first, first + 7, first + Fraction(2, 7), first + 40]:
        got = charge_from_definition(star, h, cut).values
        assert got == _definition_by_fraction_sets(star, h, cut)
    # a tail piece of slope 3/2 and offset 1/3: the unit takes the slopes'
    # denominators, and the image is still read exactly
    two = RayStar(One, ((One, One), (One, One)), (INF, Fraction(3)))
    pieces = (
        Piece(0, Zero, Fraction(3), 0, Zero, One),
        Piece(0, Fraction(3), INF, 0, Fraction(1, 3), Fraction(3, 2)),
        Piece(1, Zero, Fraction(5), 1, Fraction(5), -One),
        Piece(2, Zero, One, 2, Zero, One),
    )
    h = PLMap(two, pieces)
    for cut in (Fraction(11, 2), Fraction(6), Fraction(65, 11)):
        got = charge_from_definition(two, h, cut).values
        assert got == _definition_by_fraction_sets(two, h, cut)
    assert got["r0e"] == Fraction(1, 3) + Fraction(65, 22)


def test_a_kept_breakpoint_changes_no_repr_or_error_text():
    star, h = _oracle_request(*_request_docs())
    fresh = PLMap(star, h.pieces)
    shown = repr(fresh)
    scanned = max(
        x
        for p in h.pieces
        if p.src < star.ray_count
        for x in (p.lo, p.hi)
        if not is_inf(x)
    )
    texts = []
    for _ in range(2):
        with pytest.raises(CutTooShallowError) as err:
            charge_from_definition(star, fresh, scanned)
        texts.append(str(err.value))
    assert texts == [
        f"cut {scanned} not beyond the last breakpoint {scanned}"
    ] * 2
    assert fresh.last_breakpoint() == scanned
    assert repr(fresh) == shown
    # nor do the ints the definition reads
    charge_from_definition(star, fresh, scanned + 1)
    assert repr(fresh) == shown
    assert fresh != PLMap(star, h.pieces)  # equality stays identity


# -- segments move only across the center -------------------------------------


def _kernel_calls(monkeypatch, star, word):
    """Realize the word; return the nonzero steps on edges out of the
    center that the builder shifted, and the segment kernels' calls."""
    calls, steps = {}, []
    for name in ("_take_front", "_take_back"):
        fn = getattr(raystar, name)
        monkeypatch.setattr(raystar, name, _counting(calls, name, fn))
    shift = _PLBuilder._shift

    def noted(builder, edge, d):
        if d and edge[0] == star.center_id():
            steps.append((edge, d))
        return shift(builder, edge, d)

    monkeypatch.setattr(_PLBuilder, "_shift", noted)
    realize_word(star, word)
    return steps, sum(calls.values())


def test_segments_move_only_across_the_center(monkeypatch):
    """Balloon moves and shuffle steps alike: a move inside a ray only
    shifts two counts, and each nonzero step on a center edge takes its
    segments once."""
    rng = Random("raystar-center")
    star = _star(rng, 4, 32)
    tree = star.to_tree()
    word = random_preserving_word(
        rng, tree, base_state(tree), transfers=6, shuffles=4
    )
    assert any(isinstance(mv, Rearrange) for mv in word.moves)
    steps, kernels = _kernel_calls(monkeypatch, star, word)
    assert kernels == len(steps) > 0


def test_a_word_inside_the_rays_moves_no_segment(monkeypatch):
    rng = Random("raystar-inside")
    star = _star(rng, 3, 4)
    tree = star.to_tree()
    cells = [star.cell_id(0, k) for k in range(4)]
    x = min(star.cells[0]) / 2
    moves = [BalloonMove(e, x) for e in zip(cells, cells[1:])]
    moves += [BalloonMove(mv.edge, -x) for mv in reversed(moves)]
    support = frozenset(star.cell_id(1, k) for k in (1, 2, 3))
    mu = base_state(tree)
    before = {v: mu.blocks[v] for v in support}
    total = sum(before.values())
    shuffled = dict.fromkeys(support, total / 6)
    shuffled[star.cell_id(1, 2)] = total * 2 / 3
    moves += [Rearrange(support, shuffled), Rearrange(support, before)]
    word = MoveWord(tree, mu, tuple(moves))
    steps, kernels = _kernel_calls(monkeypatch, star, word)
    assert (steps, kernels) == ([], 0)
    assert realize_word(star, word).pieces == realize_word(
        star, MoveWord(tree, mu, ())
    ).pieces


# -- call-graph gate ----------------------------------------------------------


def _key(fn):
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


KERNELS = {
    _key(f): f.__name__
    for f in (
        _take_front,
        _take_back,
        _split,
        _join,
        _PLBuilder._shift,
    )
}


def _fraction_callers(stats, kernels):
    """``caller -> callee`` for each call a kernel makes into ``fractions``."""
    return sorted(
        f"{kernels[caller]} -> {func[2]}"
        for func, (_, _, _, _, callers) in stats.items()
        if func[0] == fractions.__file__
        for caller in callers
        if caller in kernels
    )


def test_the_definition_reads_call_no_fraction_code():
    """Per ray, the tail's image is clipped, normalized, subtracted and
    measured on ints, and each end's value is made a Fraction once."""
    star, h = _oracle_request(*_request_docs(finite=(2,)))
    kernels = {
        _key(f): f.__name__
        for f in (
            raystar._images,
            raystar._image,
            raystar.iset_normalize,
            raystar._subtract,
            raystar._outside,
            raystar._mass,
        )
    }
    prof = cProfile.Profile()
    prof.enable()
    for cut in oracle_cuts(h, 3):
        charge_from_definition(star, h, cut)
    prof.disable()
    stats = pstats.Stats(prof).stats
    assert set(kernels) <= set(stats), "a definition kernel never ran"
    assert not _fraction_callers(stats, kernels)
    # one Fraction per infinite end and cut; the finite end reads zero
    made = stats[_key(Fraction.__new__)][4][_key(charge_from_definition)]
    assert made[0] == 3 * len(_infinite_ends(star)) == 9


def test_queue_kernels_call_no_fraction_code():
    """A 4-ray star of depth 32 and a word of ~2.6k moves."""
    rng = Random("raystar-kernels")
    star = _star(rng, 4, 32)
    tree = star.to_tree()
    word = random_preserving_word(
        rng, tree, base_state(tree), transfers=40, shuffles=4
    )
    assert 2500 <= len(word) <= 2800
    realize_word(star, word)  # warm-up: fills the star's cached structure
    prof = cProfile.Profile()
    prof.enable()
    realize_word(star, word)
    prof.disable()
    stats = pstats.Stats(prof).stats
    assert set(KERNELS) <= set(stats), "a queue kernel never ran"
    # every balloon move and every step of a decomposed shuffle shifts
    assert stats[_key(_PLBuilder._shift)][1] >= len(word)
    offenders = _fraction_callers(stats, KERNELS)
    assert not offenders, offenders
