"""Constructive section of the end-charge map, and its consequences.

Given an admissible charge, :func:`build_section` produces a
measure-preserving word whose charge is exactly that charge, with the
zero charge mapping to the empty word.  The construction alternates two
words f and g along an exhaustion by downward-closed block cuts; at each
level it corrects one word against the other outside the inner cut,
scheduling mass transfers whose feasibility is guaranteed by the
admissibility of the charge (the open-interval check in
:func:`solve_balloon_parameter` is a bug sentinel, never a runtime
branch).  Every piece outside such a cut is the full subtree under a
hanging root, a node outside the cut whose parent is inside it, so the
mass a word moves into the piece is the flux on that one edge; its
target there is the charge's subtree sum at that root, the same
:meth:`BalloonTree.sums_below` table that gives :func:`forced_flux`.
:func:`build_section` computes that table once, carries the two
evaluation states of f and g across the levels and collects each word's
moves, building the words once at the end; the public :func:`align_step`
starts from the ends of two given words and runs one level through the
same core.
Along with the states, :func:`build_section` carries the blocks the last
level added or touched, so a level pays for the blocks it adds and the
moves it makes rather than for the cut it starts from; the one cost
left that is O(n) per deep balloon is the sentinel's state copy (with
the regions it sums).  The section yields the kernel factorization
(:func:`factorize`) and the charge-linear retraction (:func:`retract`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Mapping, Optional, Sequence, Tuple

from .charge import EndCharge, scale_charge, validate_charge
from .errors import (
    AlignPreconditionError,
    BadDecompositionError,
    InfeasibleTransferError,
    InvalidChargeError,
    RangeError,
    TreeMismatchError,
)
from .extmath import ExtMass, as_frac, is_inf
from .measure import MeasureState, base_state, mass
from .transport import (
    FluxField,
    MoveWord,
    Rearrange,
    _Runner,
    apply_word,
    charge_of_word,
    concat,
    empty_word,
    invert_word,
    route,
)
from .tree import BalloonTree, Region, check_region


@dataclass(frozen=True)
class FeasibilityInterval:
    """Open interval of admissible transfers into a balloon region."""

    low: ExtMass  # negative rational or -inf
    high: ExtMass  # positive rational or +inf

    def contains_strict(self, x: Fraction) -> bool:
        return self.low < x < self.high


@dataclass(frozen=True)
class Exhaustion:
    """Increasing chain of compact, downward-closed block regions ending
    at the full block set."""

    tree: BalloonTree
    levels: Tuple[Region, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "levels", tuple(frozenset(l) for l in self.levels)
        )

    @classmethod
    def from_depths(cls, tree: BalloonTree, depths: Sequence[int]) -> "Exhaustion":
        """Level k holds the blocks of depth below ``depths[k]``."""
        blocks = sorted(tree.block_nodes, key=tree.depth.__getitem__)
        sorted_depths = [tree.depth[v] for v in blocks]
        return cls(
            tree,
            tuple(
                frozenset(blocks[: bisect_left(sorted_depths, d)])
                for d in depths
            ),
        )

    @classmethod
    def default(cls, tree: BalloonTree) -> "Exhaustion":
        """Depth cuts at 1, 2, ... until every block is covered."""
        max_depth = max(tree.depth[v] for v in tree.block_nodes)
        return cls.from_depths(tree, range(1, max_depth + 2))

    def validate(self) -> list:
        out = []
        t = self.tree
        prev: frozenset = frozenset()
        for i, lv in enumerate(self.levels):
            out.extend(f"level {i} {p}" for p in _cut_problems(t, lv))
            if not prev <= lv:
                out.append(f"level {i} does not contain level {i - 1}")
            prev = lv
        if not self.levels or self.levels[-1] != frozenset(t.block_nodes):
            out.append("exhaustion does not cover all block nodes")
        return out


def _cut_problems(tree: BalloonTree, cut: Region) -> list:
    """Why a node set is not a downward-closed block cut; empty if it is.

    Set operations settle the valid case; only a cut with a problem is
    walked node by node to name it."""
    if (
        cut <= tree.node_set
        and cut.isdisjoint(tree.tails)
        and set(map(tree.parent.get, cut)) - {None} <= cut
    ):
        return []
    out = []
    if any(v in tree.tails or v not in tree.preorder_index for v in cut):
        out.append("contains non-block nodes")
    for v in cut:
        p = tree.parent.get(v)
        if p is not None and p not in cut:
            out.append(f"not downward closed at {v!r}")
    return out


def forced_flux(t: BalloonTree, a: EndCharge) -> FluxField:
    """The unique conservative flux field with the charge's leaf values.

    On a tree the flux across every edge is forced: it is the charge of
    the ends below that edge.
    """
    if a.tree != t:
        raise TreeMismatchError("charge lives on a different tree")
    if not validate_charge(base_state(t), a):
        raise InvalidChargeError("charge is not admissible for this tree")
    below = t.sums_below(a.values)
    return FluxField(t, {(p, c): below[c] for (p, c) in t.edges})


def feasibility_interval(
    sigma: MeasureState, balloon, complement
) -> FeasibilityInterval:
    """Open interval of mass transferable into the balloon from the
    complement region."""
    b = check_region(sigma.tree, balloon)
    n = check_region(sigma.tree, complement)
    if b & n:
        raise BadDecompositionError("balloon and complement overlap")
    return FeasibilityInterval(-mass(sigma, b), mass(sigma, n))


def solve_balloon_parameter(
    sigma: MeasureState, balloon, complement, target
) -> Fraction:
    """Invert the transfer gauge: the unique t in (-1, 1) moving exactly
    ``target`` into the balloon.

    Gauge: t >= 0 maps to t * mass(complement) when finite, else
    t / (1 - t); symmetrically for t < 0 with the balloon mass.  Raises
    InfeasibleTransferError when the target is not strictly inside the
    feasibility interval; on inputs derived from an admissible charge
    this cannot happen.
    """
    target = as_frac(target)
    iv = feasibility_interval(sigma, balloon, complement)
    if not iv.contains_strict(target):
        raise InfeasibleTransferError(
            f"target {target} outside open interval ({iv.low}, {iv.high})"
        )
    if target == 0:
        return Fraction(0)
    if target > 0:
        if is_inf(iv.high):
            return target / (1 + target)
        return target / iv.high
    if is_inf(iv.low):
        return target / (1 - target)
    return target / (-iv.low)


def _donor_order(tree: BalloonTree, runner: _Runner, donors, dest: str):
    """Donors in transfer order, drawn lazily: blocks first, then finite
    tails, then infinite tails; nearest to the destination first, and in
    preorder at equal distance.

    Distances come from a breadth-first pass out of ``dest`` through the
    donor set, which together with ``dest`` is connected: the remainder
    of a component feeding one of its deep balloons, or a deep balloon
    draining into its parent.  The pass advances one distance layer at a
    time and yields that layer's blocks at once, so a caller that stops
    drawing never walks the rest; the tails follow once the pass ends.
    """
    index = tree.preorder_index
    tails = runner.tails
    seen = {dest}
    layer = [dest]
    finite: List[str] = []
    infinite: List[str] = []
    while layer:
        nxt = []
        for u in layer:
            for w in (tree.parent.get(u), *tree.child_map(u)):
                if w in donors and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        nxt.sort(key=index.__getitem__)
        for w in nxt:
            if w not in tails:
                yield w
            elif is_inf(tails[w]):
                infinite.append(w)
            else:
                finite.append(w)
        layer = nxt
    yield from finite
    yield from infinite


def _transfer(tree, runner, out_moves: List, donors, dest: str, amount: Fraction):
    """Drain ``amount`` from the donor region onto ``dest``.

    Installments are capped at half the donor's current mass (all of it
    for infinite tails), so strict positivity holds at every step; the
    residual closes in finitely many passes because the feasibility check
    guarantees the donors strictly cover the amount.  The first pass
    draws donors from :func:`_donor_order` only until the amount is
    covered; a pass that leaves a residual has drawn them all.
    """
    remaining = amount
    order = _donor_order(tree, runner, donors, dest)
    while remaining > 0:
        progressed = False
        drawn = []
        for donor in order:
            drawn.append(donor)
            m = runner.node_mass(donor)
            if is_inf(m):
                take = remaining
            else:
                take = min(remaining, m / 2)
                if take <= 0:
                    continue
            for mv in route(tree, donor, dest, take):
                runner.apply(mv)
                out_moves.append(mv)
            remaining -= take
            progressed = True
            if remaining == 0:
                break
        if remaining > 0 and not progressed:
            raise InfeasibleTransferError(
                f"donors exhausted with {remaining} still to move to {dest!r}"
            )
        order = drawn


def _align(
    tree: BalloonTree,
    inner: Region,
    outer: Region,
    check: Region,
    runner: _Runner,
    target_runner: _Runner,
    below: Mapping[str, Fraction],
    out_moves: List,
) -> Region:
    """Advance ``runner`` by one correction level against ``target_runner``,
    appending the correction moves to ``out_moves``.

    Outside a downward-closed cut every piece is the full subtree under a
    hanging root, a node outside the cut whose parent is inside it (the
    root when the cut is empty), so the mass a word moves into the piece
    is the flux on the one edge above that root.  The correction is
    supported outside the inner cut; afterwards the runner matches the
    target's state on the outer cut and hits the charge's transfer targets
    on every piece beyond it, read as ``below[v]`` for the piece under
    ``v`` from the charge's :meth:`BalloonTree.sums_below` table.  The
    hypotheses are checked first: the two states agree on the inner cut,
    and their transfer difference already equals the charge on every piece
    outside the inner cut.  Inside each piece the deep balloons (the pieces
    outside the outer cut hanging from the piece's core) are settled one at
    a time, drawing mass from the not-yet-settled remainder through the
    feasibility gauge, and a final rearrangement fixes the core to the
    target state.

    ``check`` holds the inner-cut blocks to compare: the whole inner cut,
    or, when the states agreed on the previous level's inner cut, the
    blocks that level added and the blocks its moves touched, since no
    other block of either state has changed since.  The transfer check
    runs on the hanging roots whose parent is in ``check`` (the root when
    the inner cut is empty): any other hanging root hung from the
    previous level's inner cut, passed that level's check, and no move
    has crossed its edge since, for a move across it would have touched
    its parent.  Each piece with a core (its share of the added blocks
    ``outer - inner``, found through the preorder interval of its
    subtree) is reached from the core's top.  So a level pays for the
    blocks it adds and the moves it makes, not for the cut it starts
    from; the one cost left that is O(n) per deep balloon is the bug
    sentinel's state copy (with the regions it sums).  Returns the
    outer-cut blocks the next level must compare.

    Precondition, checked by the callers where the cuts enter: ``inner``
    and ``outer`` are frozensets of the tree's blocks, each downward
    closed, with ``inner <= outer``; ``check`` is as above.
    """
    for v in check:
        if runner.blocks[v] != target_runner.blocks[v]:
            raise AlignPreconditionError(
                f"states disagree on inner cut at {v!r}"
            )

    def inflow(r: _Runner, root: str) -> Fraction:
        """Mass moved into the subtree under ``root``."""
        p = tree.parent.get(root)
        return Fraction(0) if p is None else r.flux[(p, root)]

    index, stop, nodes = tree.preorder_index, tree._preorder_stop, tree.nodes
    recheck = (
        {c for v in check for c in tree.child_map(v) if c not in inner}
        if inner
        else {tree.root}
    )
    for h in sorted(recheck, key=index.__getitem__):
        have = inflow(runner, h) - inflow(target_runner, h)
        if have != below[h]:
            raise AlignPreconditionError(
                f"transfer mismatch on the component under {h!r} outside "
                f"the inner cut: {have} != {below[h]}"
            )

    added = outer - inner
    positions = sorted(map(index.__getitem__, added))
    tops = [
        nodes[i] for i in positions if tree.parent.get(nodes[i]) not in added
    ]
    first_move = len(out_moves)
    # pieces without a core lie beyond the outer cut: other pieces'
    # corrections stay in their own subtrees, so their transfer check holds
    for h in tops:
        lo = bisect_left(positions, index[h])
        hi = bisect_left(positions, stop[h], lo)
        core = frozenset(map(nodes.__getitem__, positions[lo:hi]))
        # children of the core outside it are the outer cut's hanging
        # roots inside this piece: its deep balloons, settled in preorder
        deep_roots = sorted(
            (c for v in core for c in tree.child_map(v) if c not in core),
            key=index.__getitem__,
        )
        deeps = [(hb, tree.subtree(hb)) for hb in deep_roots]
        for j, (hb, B) in enumerate(deeps):
            target = below[hb] + inflow(target_runner, hb) - inflow(runner, hb)
            rest = core.union(*(D for _, D in deeps[j + 1 :]))
            solve_balloon_parameter(runner.state(), B, rest, target)
            if target == 0:
                continue
            if target > 0:
                _transfer(tree, runner, out_moves, rest, hb, target)
            else:
                _transfer(tree, runner, out_moves, B, tree.parent[hb], -target)
        tau = {v: target_runner.blocks[v] for v in core}
        if any(runner.blocks[v] != tau[v] for v in core):
            mv = Rearrange(core, tau)
            runner.apply(mv)
            out_moves.append(mv)

    touched = set()
    for mv in out_moves[first_move:]:
        touched.update(mv.support if isinstance(mv, Rearrange) else mv.edge)
    return added | (touched & outer)


def align_step(
    mu: MeasureState,
    inner: Region,
    outer: Region,
    word: MoveWord,
    target_word: MoveWord,
    charge: EndCharge,
) -> MoveWord:
    """One correction level: a word h supported outside the inner cut
    such that word+h matches the target word's state on the outer cut and
    hits the charge's transfer targets on every component beyond it.

    Both words start from their ends (:func:`apply_word`, which keeps
    them on the words), the two cuts are checked, and the level is
    computed by the same core :func:`build_section` runs on its carried
    states, with the same hypothesis checks (see :func:`_align`).
    """
    tree = mu.tree
    if word.tree != tree or target_word.tree != tree or charge.tree != tree:
        raise TreeMismatchError("alignment inputs live on different trees")
    if word.base != mu or target_word.base != mu:
        raise AlignPreconditionError("words must be based at the given measure")
    # Fraction runners from the words' ends: the level's moves need not be
    # whole units of a word
    ends = [apply_word(w) for w in (word, target_word)]
    runner, target_runner = (_Runner(state) for state, _ in ends)
    runner.flux, target_runner.flux = (dict(flux.flux) for _, flux in ends)
    inner = check_region(tree, inner)
    outer = check_region(tree, outer)
    for name, cut in (("inner", inner), ("outer", outer)):
        problems = _cut_problems(tree, cut)
        if problems:
            raise AlignPreconditionError(f"{name} cut {problems[0]}")
    if not inner <= outer:
        raise AlignPreconditionError("inner cut must lie inside the outer cut")
    start = runner.state()
    h_moves: List = []
    below = tree.sums_below(charge.values)
    _align(tree, inner, outer, inner, runner, target_runner, below, h_moves)
    return MoveWord(tree, start, tuple(h_moves))


def build_section(
    tree: BalloonTree,
    mu: MeasureState,
    a: EndCharge,
    exhaustion: Optional[Exhaustion] = None,
) -> MoveWord:
    """A measure-preserving word with charge exactly ``a``; the zero
    charge yields the empty word.

    Two words grow alternately along the exhaustion: at each level f is
    corrected against g out to the next cut, then g against f with the
    negated charge.  The evaluation states of f and g are carried from
    level to level, so no word is replayed, and so are the blocks the next
    level must compare (see :func:`_align`).  Once the cuts exhaust the
    blocks the two words agree everywhere and differ in transfer by
    exactly ``a``; the result is f followed by the inverse of g.
    """
    if mu.tree != tree or a.tree != tree:
        raise TreeMismatchError("tree, measure and charge must match")
    if not validate_charge(mu, a):
        raise InvalidChargeError("charge is not admissible for the measure")
    if a.is_zero():
        return empty_word(mu)
    ex = exhaustion if exhaustion is not None else Exhaustion.default(tree)
    if ex.tree != tree:  # _align takes the levels as cuts of this tree
        raise TreeMismatchError("exhaustion lives on a different tree")
    problems = ex.validate()
    if problems:
        raise ValueError("invalid exhaustion: " + "; ".join(problems))

    levels = list(ex.levels)
    if len(levels) % 2:
        levels.append(levels[-1])
    below = tree.sums_below(a.values)
    neg_below = {v: -x for v, x in below.items()}

    fr, gr = _Runner(mu), _Runner(mu)
    f_moves: List = []
    g_moves: List = []
    prev: Region = frozenset()
    check = prev
    for k in range(0, len(levels), 2):
        K, L = levels[k], levels[k + 1]
        check = _align(tree, prev, K, check, fr, gr, below, f_moves)
        check = _align(tree, K, L, check, gr, fr, neg_below, g_moves)
        prev = L
    f = MoveWord(tree, mu, tuple(f_moves))
    g = MoveWord(tree, mu, tuple(g_moves))
    return concat(f, invert_word(g))


def factorize(
    word: MoveWord, exhaustion: Optional[Exhaustion] = None
) -> Tuple[MoveWord, EndCharge]:
    """Split a preserving word into a zero-charge kernel word and its
    charge: word = section(charge) followed by the kernel, extensionally."""
    a = charge_of_word(word)
    s = build_section(word.tree, word.base, a, exhaustion)
    kernel = concat(invert_word(s), word)
    return kernel, a


def retract(
    word: MoveWord, tau, exhaustion: Optional[Exhaustion] = None
) -> MoveWord:
    """Slide a preserving word toward the kernel: the result has charge
    (1 - tau) times the word's; tau = 0 returns the word, tau = 1 lands
    in the kernel, and kernel words are fixed for every tau."""
    tau = as_frac(tau)
    if not 0 <= tau <= 1:
        raise RangeError(f"retraction parameter {tau} outside [0, 1]")
    a = charge_of_word(word)
    s = build_section(word.tree, word.base, scale_charge(tau, a), exhaustion)
    return concat(invert_word(s), word)
