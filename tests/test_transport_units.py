"""The runner's integer units, checked two ways.

* Against the runner they replaced: ``_FractionRunner`` below is that
  runner, every mass and flux a ``Fraction``, with the replays built on
  it.  Every replay of a given word must give the same outputs, compared
  by ``repr`` so that a value that changes type or lands one unit off
  shows, or fail with the same error type, text and ``move_index``.
* By call graph: cProfile records which functions each function calls,
  and the two appliers must call nothing in ``fractions``.  An amount is
  read in once, in ``_Runner._in``, and a Fraction is made only on the
  way out, so a charge makes one Fraction per end, its leaf flux, and
  ``EndCharge`` fills the ends it is not given with one shared zero.
"""

import cProfile
import fractions
import pstats
from fractions import Fraction
from random import Random

import pytest

from endflow.charge import EndCharge
from endflow.errors import (
    BadSupportError,
    ChargeUndefinedError,
    MassNotConservedError,
    NonPositiveBlockError,
    NotLiftableError,
    TreeMismatchError,
)
from endflow.extmath import INF, is_inf
from endflow.gen import (
    random_morphism,
    random_preserving_word,
    random_region,
    random_star,
    random_state,
    random_tree,
    random_valid_charge,
    small_fraction,
)
from endflow.measure import MeasureState, base_state
from endflow.morphism import push_measure, push_word
from endflow.raystar import RayStar, _PLBuilder, realize_word
from endflow.section import build_section
from endflow.transport import (
    BalloonMove,
    FluxField,
    Move,
    MoveWord,
    Rearrange,
    _Runner,
    _word_unit,
    apply_word,
    charge_of_word,
    invert_word,
    is_measure_preserving,
    region_transfer,
    route,
)
from endflow.tree import BalloonTree, frontier_edges

from shuffle_reference import _ref_rearrangement_moves

# -- the Fraction runner and the replays built on it -------------------------


class _FractionRunner:
    """The runner on Fraction masses and fluxes, as it was before units."""

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



def _ref_replay(word):
    r = _FractionRunner(word.base)
    for i, m in enumerate(word.moves):
        try:
            r.apply(m)
        except Exception as e:
            e.move_index = i
            raise
    return r


def _ref_apply_word(word):
    r = _ref_replay(word)
    return r.state(), r.flux_field()


def _ref_preserves(word, r):
    t = word.tree
    return r.blocks == word.base.blocks and all(
        is_inf(word.base.tails[v]) or r.flux[t.leaf_edge(v)] == 0
        for v in t.end_leaves
    )


def _ref_is_measure_preserving(word):
    return _ref_preserves(word, _ref_replay(word))


def _ref_charge_of_word(word):
    r = _ref_replay(word)
    if not _ref_preserves(word, r):
        raise ChargeUndefinedError(
            "word does not preserve its base measure; charge undefined"
        )
    t = word.tree
    return EndCharge(t, {v: r.flux[t.leaf_edge(v)] for v in t.end_leaves})


def _ref_invert_word(word):
    r = _FractionRunner(word.base)
    inv = []
    for i, m in enumerate(word.moves):
        try:
            replaced = r.apply(m)
        except Exception as e:
            e.move_index = i
            raise
        if isinstance(m, Rearrange):
            inv.append(Rearrange(m.support, replaced))
        else:
            inv.append(BalloonMove(m.edge, -m.amount))
    return MoveWord(word.tree, r.state(), tuple(reversed(inv)))


def _ref_region_transfer(word, region):
    flux = _ref_replay(word).flux
    total = Fraction(0)
    for (e, sign) in frontier_edges(word.tree, region):
        total += sign * flux[e]
    return total


def _ref_push_word(pi, word):
    if word.tree != pi.source:
        raise TreeMismatchError("word lives on a different tree")
    runner = _FractionRunner(word.base)
    out = []
    for i, mv in enumerate(word.moves):
        try:
            runner.apply(mv)
        except Exception as e:
            e.move_index = i
            raise
        if isinstance(mv, BalloonMove):
            p, c = mv.edge
            mp, mc = pi.node_map[p], pi.node_map[c]
            if mp == mc:
                raise NotLiftableError(
                    f"move crosses edge {mv.edge!r} inside a collapsed fiber"
                )
            out.append(BalloonMove((mp, mc), mv.amount))
        else:
            mapped = frozenset(pi.node_map[v] for v in mv.support)
            if len(mapped) == 1:
                raise NotLiftableError(
                    "rearrangement supported inside a collapsed fiber"
                )
            masses = {
                tgt: sum(
                    (runner.blocks[v] for v in pi.fibers[tgt]), Fraction(0)
                )
                for tgt in mapped
            }
            out.append(Rearrange(mapped, masses))
    return MoveWord(pi.target, push_measure(pi, word.base), tuple(out))


def _ref_realize_word(star, word):
    tree = star.to_tree()
    if word.tree != tree:
        raise TreeMismatchError("word does not live on the star's tree")
    builder = _PLBuilder(star, _word_unit(word))

    def shift(move):
        # the Fraction runner has checked the edge; the amount is converted
        # here, and must be a whole number of the builder's units
        units = move.amount * builder.unit
        assert units.denominator == 1, (move, builder.unit)
        builder._shift(move.edge, units.numerator)

    runner = _FractionRunner(word.base)
    for i, mv in enumerate(word.moves):
        try:
            replaced = runner.apply(mv)
        except Exception as e:
            e.move_index = i
            raise
        if isinstance(mv, Rearrange):
            anchor = tree.top(mv.support)
            for sub in _ref_rearrangement_moves(
                tree, anchor, replaced, mv.masses
            ):
                shift(sub)
        else:
            shift(mv)
    if not _ref_preserves(word, runner):
        raise ChargeUndefinedError(
            "word does not preserve its base measure; charge undefined"
        )
    return builder.to_plmap()


# -- corpus -------------------------------------------------------------------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
DENOMINATORS = PRIMES + (1000003,)


def _infinite_ends(tree, mu):
    return [v for v in tree.end_leaves if is_inf(mu.tails[v])]


def _prime_word(rng, tree, mu):
    """Tail-to-tail transfers of k/p over a run of denominators p, each
    partly sent back."""
    ends = _infinite_ends(tree, mu)
    moves = []
    for p in rng.sample(DENOMINATORS, 6) + [1000003]:
        src, dst = rng.sample(ends, 2)
        x = Fraction(rng.randint(1, 2 * p), p)
        moves += route(tree, src, dst, x)
        moves += route(tree, dst, src, x / rng.choice((2, 3)))
    return MoveWord(tree, mu, tuple(moves))


def _finite_tail_word(rng, tree, mu, give_back=True):
    """Mass sent from an infinite tail into every finite tail, with a
    random word in between, and sent back unless ``give_back`` is off."""
    src = rng.choice(_infinite_ends(tree, mu))
    out = []
    for v in tree.end_leaves:
        if not is_inf(mu.tails[v]):
            out += route(tree, src, v, small_fraction(rng, 3, 7))
    back = [BalloonMove(m.edge, -m.amount) for m in reversed(out)]
    inner = random_preserving_word(rng, tree, mu, transfers=2, shuffles=3)
    return MoveWord(
        tree, mu, tuple(out) + inner.moves + (tuple(back) if give_back else ())
    )


def _broken(rng, word):
    """The word with one bad move put in at a random place: an overdraw,
    a foreign edge, a tail as parent, or a bad shuffle."""
    tree, mu = word.tree, word.base
    blocks = list(tree.block_nodes)
    kind = rng.randrange(7)
    if kind == 0:
        p, c = rng.choice(list(tree.edges))
        amount = Fraction(rng.randint(50, 99), rng.choice(PRIMES))
        bad = BalloonMove((p, c), amount)
    elif kind == 1:
        bad = BalloonMove((tree.root, "zz"), Fraction(1, 3))
    elif kind == 2:
        leaf = rng.choice(tree.end_leaves)
        bad = BalloonMove((leaf, tree.parent[leaf]), Fraction(1, 5))
    elif kind == 3:
        v = rng.choice(blocks)
        bad = Rearrange({v}, {v: mu.blocks[v] + Fraction(1, 7)})
    elif kind == 4:
        leaf = rng.choice(tree.end_leaves)
        p = tree.parent[leaf]
        bad = Rearrange({p, leaf}, {p: Fraction(1), leaf: Fraction(1)})
    elif kind == 5:
        v = rng.choice(blocks)
        bad = Rearrange({v}, {v: Fraction(-1, 6)})
    else:
        bad = Rearrange(frozenset(), {})
    at = rng.randint(0, len(word.moves))
    moves = word.moves[:at] + (bad,) + word.moves[at:]
    return MoveWord(tree, mu, moves)


def _random_word(rng, tree, mu):
    transfers, shuffles = rng.randint(1, 6), rng.randint(0, 4)
    return random_preserving_word(rng, tree, mu, transfers, shuffles)


def _tree_corpus():
    rng = Random("transport-units")
    for k in range(40):
        tree = random_tree(rng, max_depth=2 + k % 4, max_nodes=10 + k)
        mu = base_state(tree) if k % 2 else random_state(rng, tree)
        yield f"random{k}", _random_word(rng, tree, mu)
        yield f"primes{k}", _prime_word(rng, tree, mu)
        yield f"finite_tails{k}", _finite_tail_word(rng, tree, mu)
        yield f"kept_in_tails{k}", _finite_tail_word(rng, tree, mu, False)
        a = random_valid_charge(rng, tree, mu)
        yield f"section{k}", build_section(tree, mu, a)
        yield f"broken{k}", _broken(rng, random_preserving_word(rng, tree, mu))


def _wide_shuffle_word(rng, star):
    """A shuffle over the center and the first cell of every ray, a
    transfer while it holds, and the shuffle undone."""
    tree = star.to_tree()
    mu = base_state(tree)
    cells = [star.cell_id(i, 0) for i in range(star.ray_count)]
    support = frozenset([star.center_id(), *cells])
    order = sorted(support)
    total = sum(mu.blocks[v] for v in order)
    weights = [rng.randint(1, 9) for _ in order]
    masses = {v: total * w / sum(weights) for v, w in zip(order, weights)}
    undo = Rearrange(support, {v: mu.blocks[v] for v in order})
    ends = _infinite_ends(tree, mu)
    transfer = route(tree, ends[0], ends[1], Fraction(7, 13))
    return MoveWord(tree, mu, (Rearrange(support, masses), *transfer, undo))


def _star_corpus():
    rng = Random("transport-units-stars")
    for k in range(24):
        star = random_star(rng, max_rays=5, max_depth=4)
        tree = star.to_tree()
        mu = base_state(tree)
        yield f"star_random{k}", star, _random_word(rng, tree, mu)
        yield f"star_primes{k}", star, _prime_word(rng, tree, mu)
        yield f"star_wide_shuffle{k}", star, _wide_shuffle_word(rng, star)
        yield f"star_finite_tails{k}", star, _finite_tail_word(rng, tree, mu)
        a = random_valid_charge(rng, tree, mu)
        yield f"star_section{k}", star, build_section(tree, mu, a)
        yield f"star_broken{k}", star, _broken(rng, _prime_word(rng, tree, mu))


TREE_CORPUS = list(_tree_corpus())
STAR_CORPUS = list(_star_corpus())


# -- outputs, by repr ---------------------------------------------------------


def _outcome(fn, *args):
    """repr of what ``fn`` gives, or the error's type, text and index."""
    try:
        return ("ok", _shown(fn(*args)))
    except Exception as e:
        return (type(e).__name__, str(e), getattr(e, "move_index", None))


def _shown(x):
    if isinstance(x, MeasureState):
        return repr((sorted(x.blocks.items()), sorted(x.tails.items())))
    if isinstance(x, FluxField):
        return repr(sorted(x.flux.items()))
    if isinstance(x, EndCharge):
        return repr(sorted(x.values.items()))
    if isinstance(x, MoveWord):
        return (_shown(x.base), [_shown(m) for m in x.moves])
    if isinstance(x, Rearrange):
        return repr((sorted(x.support), sorted(x.masses.items())))
    if isinstance(x, tuple):
        return tuple(_shown(y) for y in x)
    if hasattr(x, "pieces"):
        return [repr(vars(p)) for p in x.pieces]
    return repr(x)


def _replays(word, regions):
    """Every replay of a given word, new and old side by side."""
    yield "charge_of_word", charge_of_word, _ref_charge_of_word, (word,)
    yield "apply_word", apply_word, _ref_apply_word, (word,)
    yield "invert_word", invert_word, _ref_invert_word, (word,)
    yield (
        "is_measure_preserving",
        is_measure_preserving,
        _ref_is_measure_preserving,
        (word,),
    )
    for region in regions:
        yield "region_transfer", region_transfer, _ref_region_transfer, (
            word,
            region,
        )


def _differences(word, regions, extra=()):
    out = []
    for name, new, old, args in (*_replays(word, regions), *extra):
        got, want = _outcome(new, *args), _outcome(old, *args)
        if got != want:
            out.append((name, got, want))
    return out


@pytest.mark.parametrize(
    "name, word", TREE_CORPUS, ids=[name for name, _ in TREE_CORPUS]
)
def test_replays_match_the_fraction_runner(name, word):
    rng = Random(name)
    regions = [random_region(rng, word.tree) for _ in range(3)]
    assert _differences(word, regions) == []


@pytest.mark.parametrize(
    "name, star, word", STAR_CORPUS, ids=[name for name, _, _ in STAR_CORPUS]
)
def test_star_replays_and_realization_match(name, star, word):
    rng = Random(name)
    regions = [random_region(rng, word.tree) for _ in range(2)]
    realized = ("realize_word", realize_word, _ref_realize_word, (star, word))
    assert _differences(word, regions, [realized]) == []


def test_push_word_matches_the_fraction_runner():
    rng = Random("transport-units-push")
    outcomes = set()
    for _ in range(60):
        pi = random_morphism(rng)
        mu = random_state(rng, pi.source)
        # a word kept off the collapsed fibers pushes; one that is not may
        # move inside a fiber, which push_word refuses
        avoid = pi.collapsed_nodes if rng.random() < 0.7 else frozenset()
        word = random_preserving_word(rng, pi.source, mu, avoid=avoid)
        if rng.random() < 0.3:
            word = _broken(rng, word)
        got = _outcome(push_word, pi, word)
        assert got == _outcome(_ref_push_word, pi, word)
        outcomes.add(got[0])
    assert {"ok", "NotLiftableError"} <= outcomes


def test_corpus_holds_what_it_names():
    errors = {}
    for name, word in TREE_CORPUS:
        kind = _outcome(charge_of_word, word)[0]
        errors.setdefault(kind, []).append(name)
    # preserving words of every kind, words that keep mass in a finite
    # tail, and each way a move can fail
    failed = [n for kind, ns in errors.items() if kind != "ok" for n in ns]
    assert all(n.startswith(("kept", "broken")) for n in failed)
    for err in (
        ChargeUndefinedError,
        NonPositiveBlockError,
        TreeMismatchError,
        BadSupportError,
        MassNotConservedError,
    ):
        assert err.__name__ in errors, err
    amounts = [
        mv.amount
        for name, word in TREE_CORPUS
        if name.startswith("primes")
        for mv in word.moves
    ]
    assert all(
        any(x.denominator % p == 0 for x in amounts) for p in DENOMINATORS
    )
    assert any(x < 0 for x in amounts)
    supports = [
        len(mv.support)
        for _, _, word in STAR_CORPUS
        for mv in word.moves
        if isinstance(mv, Rearrange)
    ]
    assert max(supports) >= 5
    assert sum(w.base != base_state(w.tree) for _, w in TREE_CORPUS) >= 40


# -- call-graph gate ----------------------------------------------------------


def _key(fn):
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


APPLIERS = {
    _key(f): f.__name__
    for f in (_Runner._apply_balloon, _Runner._apply_rearrange)
}


def test_appliers_call_no_fraction_code():
    """charge_of_word on a 4-ray star of depth 32 and a word of ~2.6k
    moves with shuffles."""
    rng = Random("transport-kernels")
    cells = tuple(
        tuple(small_fraction(rng) for _ in range(32)) for _ in range(4)
    )
    star = RayStar(small_fraction(rng, 9, 2), cells, (INF,) * 4)
    tree = star.to_tree()
    word = random_preserving_word(
        rng, tree, base_state(tree), transfers=40, shuffles=4
    )
    assert 2500 <= len(word) <= 2800
    assert sum(isinstance(m, Rearrange) for m in word.moves) >= 4
    # warm-up on an equal copy: fills the tree's cached structure, while
    # the word's own replay is left for the profiled call to run
    charge_of_word(MoveWord(word.tree, word.base, word.moves))
    prof = cProfile.Profile()
    prof.enable()
    charge_of_word(word)
    prof.disable()
    stats = pstats.Stats(prof).stats
    assert set(APPLIERS) <= set(stats), "an applier never ran"
    assert stats[_key(_Runner._apply_balloon)][1] >= len(word) - 8
    offenders = sorted(
        f"{APPLIERS[caller]} -> {func[2]}"
        for func, (_, _, _, _, callers) in stats.items()
        if func[0] == fractions.__file__
        for caller in callers
        if caller in APPLIERS
    )
    assert not offenders, offenders
    made = stats.get(_key(Fraction.__new__), (0, 0))[1]
    assert made <= len(tree.end_leaves), made
