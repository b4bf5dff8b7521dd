"""Balloon trees: rooted weighted trees modelling a noncompact space.

Interior nodes and Closed leaves are compact blocks with a positive weight.
End leaves stand for whole infinite tails beyond the truncation depth; each
carries a tail mass (positive rational or infinite) and is one cylinder of
the end space.  Regions are arbitrary node subsets; including an End leaf
means including its entire tail, so every region models a Borel set with
compact frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from .errors import MalformedRegionError
from .extmath import ExtMass, as_frac, as_mass, is_inf

Region = FrozenSet[str]
EndSet = FrozenSet[str]
Edge = Tuple[str, str]  # (parent, child)


@dataclass(frozen=True)
class BalloonTree:
    """Finite rooted tree of weighted blocks with tagged leaves.

    ``children`` maps every node id to its ordered child list (leaves map to
    an empty tuple or may be absent).  ``weights`` assigns block masses to
    interior nodes and Closed leaves; ``tails`` assigns tail masses to End
    leaves.  The constructor is permissive: structural invariants are
    reported by :func:`validate_tree`, and the remaining operations assume
    a valid tree.
    """

    root: str
    children: Mapping[str, Tuple[str, ...]]
    weights: Mapping[str, Fraction]
    tails: Mapping[str, ExtMass]
    closed: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self):
        # empty child lists are dropped so structural equality does not
        # depend on whether leaves were listed explicitly
        object.__setattr__(
            self,
            "children",
            {k: tuple(v) for k, v in self.children.items() if v},
        )
        object.__setattr__(
            self, "weights", {k: as_frac(v) for k, v in self.weights.items()}
        )
        object.__setattr__(
            self, "tails", {k: as_mass(v) for k, v in self.tails.items()}
        )
        object.__setattr__(self, "closed", frozenset(self.closed))

    # -- derived structure (valid trees only) --------------------------------

    @cached_property
    def nodes(self) -> Tuple[str, ...]:
        """All node ids in depth-first preorder from the root.

        Nodes unreachable from the root are appended at the end so that
        validation can name them.
        """
        seen = []
        seen_set = set()
        stack = [self.root]
        while stack:
            v = stack.pop()
            if v in seen_set:
                continue
            seen.append(v)
            seen_set.add(v)
            for c in reversed(self.children.get(v, ())):
                stack.append(c)
        for v in self._declared_ids:
            if v not in seen_set:
                seen.append(v)
                seen_set.add(v)
        return tuple(seen)

    @cached_property
    def preorder_index(self) -> Mapping[str, int]:
        """Position of each node in :attr:`nodes`."""
        return {v: i for i, v in enumerate(self.nodes)}

    @cached_property
    def _declared_ids(self) -> Tuple[str, ...]:
        ids = []
        seen = set()
        for v in (
            [self.root]
            + list(self.children)
            + [c for cs in self.children.values() for c in cs]
            + list(self.weights)
            + list(self.tails)
            + list(self.closed)
        ):
            if v not in seen:
                ids.append(v)
                seen.add(v)
        return tuple(ids)

    @cached_property
    def parent(self) -> Mapping[str, str]:
        p = {}
        for v, cs in self.children.items():
            for c in cs:
                if c not in p:
                    p[c] = v
        return p

    @cached_property
    def depth(self) -> Mapping[str, int]:
        d = {self.root: 0}
        stack = [self.root]
        while stack:
            v = stack.pop()
            for c in self.children.get(v, ()):
                if c not in d:
                    d[c] = d[v] + 1
                    stack.append(c)
        return d

    @cached_property
    def end_leaves(self) -> Tuple[str, ...]:
        return tuple(v for v in self.nodes if v in self.tails)

    @cached_property
    def node_set(self) -> FrozenSet[str]:
        return frozenset(self.nodes)

    @cached_property
    def end_leaf_set(self) -> FrozenSet[str]:
        return frozenset(self.end_leaves)

    @cached_property
    def block_nodes(self) -> Tuple[str, ...]:
        return tuple(v for v in self.nodes if v not in self.tails)

    @cached_property
    def edges(self) -> Tuple[Edge, ...]:
        out = []
        for v in self.nodes:
            for c in self.children.get(v, ()):
                out.append((v, c))
        return tuple(out)

    def is_end_leaf(self, v: str) -> bool:
        return v in self.tails

    def child_map(self, v: str) -> Tuple[str, ...]:
        return self.children.get(v, ())

    @cached_property
    def _preorder_stop(self) -> Mapping[str, int]:
        """One past the last preorder position of each node's subtree."""
        stop = {}
        nodes = self.nodes
        for i in range(len(nodes) - 1, -1, -1):
            kids = self.children.get(nodes[i])
            stop[nodes[i]] = stop[kids[-1]] if kids else i + 1
        return stop

    def subtree(self, v: str) -> FrozenSet[str]:
        """The node and all its descendants: one slice of the preorder,
        so it needs a valid tree like the rest of the derived structure."""
        return frozenset(
            self.nodes[self.preorder_index[v] : self._preorder_stop[v]]
        )

    def leaf_edge(self, leaf: str) -> Edge:
        return (self.parent[leaf], leaf)

    def top(self, region: FrozenSet[str]) -> Optional[str]:
        """Sole node of the region whose parent is outside it, else None."""
        tops = [v for v in region if self.parent.get(v) not in region]
        return tops[0] if len(tops) == 1 else None

    def sums_below(self, values, region=None) -> Dict[str, Fraction]:
        """Each node's subtree sum of ``values`` (zero where omitted) over a
        connected region, the whole tree by default: the Kirchhoff sum a
        conservative flux carries across the edge above the node."""
        region = self.node_set if region is None else region
        below = {}
        for v in sorted(region, key=self.preorder_index.__getitem__)[::-1]:
            s = values.get(v, Fraction(0))
            for c in self.children.get(v, ()):
                if c in region:
                    s += below[c]
            below[v] = s
        return below

    def path(self, a: str, b: str) -> Tuple[str, ...]:
        """Node sequence of the unique tree path from a to b."""
        da, db = self.depth[a], self.depth[b]
        up_a, up_b = [a], [b]
        while da > db:
            a = self.parent[a]
            up_a.append(a)
            da -= 1
        while db > da:
            b = self.parent[b]
            up_b.append(b)
            db -= 1
        while a != b:
            a = self.parent[a]
            b = self.parent[b]
            up_a.append(a)
            up_b.append(b)
        return tuple(up_a[:-1] + up_b[::-1])

    def __hash__(self):
        return hash((self.root, tuple(sorted(self.children))))


def validate_tree(t: BalloonTree) -> list:
    """Return one message per violated invariant; empty iff the tree is valid."""
    out = []
    ids = set(t._declared_ids)

    parents = {}
    for v, cs in t.children.items():
        if v not in ids:
            out.append(f"children listed for unknown node {v!r}")
        for c in cs:
            if c in parents:
                out.append(f"node {c!r} has multiple parents")
            parents[c] = v
    if t.root in parents:
        out.append(f"root {t.root!r} appears as a child")

    reachable = set()
    stack = [t.root]
    while stack:
        v = stack.pop()
        if v in reachable:
            out.append(f"cycle through node {v!r}")
            continue
        reachable.add(v)
        stack.extend(t.children.get(v, ()))
    for v in ids:
        if v not in reachable:
            out.append(f"node {v!r} unreachable from root")

    tagged = set(t.tails) | set(t.closed)
    for v in sorted(ids & reachable):
        kids = t.children.get(v, ())
        if kids:
            if v in t.tails:
                out.append(f"End leaf {v!r} has children")
            if v in t.closed:
                out.append(f"Closed leaf {v!r} has children")
        elif v not in tagged:
            out.append(f"leaf {v!r} is neither an End nor a Closed leaf")
        if v in t.tails and v in t.closed:
            out.append(f"leaf {v!r} tagged both End and Closed")

    for v in sorted(ids):
        if v in t.tails:
            m = t.tails[v]
            if not is_inf(m) and m <= 0:
                out.append(f"non-positive tail mass at {v!r}")
            if v in t.weights:
                out.append(f"End leaf {v!r} carries a block weight")
        else:
            w = t.weights.get(v)
            if w is None:
                out.append(f"missing block weight at {v!r}")
            elif w <= 0:
                out.append(f"non-positive weight at {v!r}")

    if t.root in t.tails:
        out.append("root is an End leaf; the base block is missing")
    if not any(v in t.tails for v in reachable):
        out.append("no End leaf: the modelled space would be compact")
    return out


def check_region(t: BalloonTree, region: Iterable[str]) -> Region:
    r = frozenset(region)
    foreign = r - t.node_set
    if foreign:
        raise MalformedRegionError(
            f"region references foreign nodes: {sorted(foreign)}"
        )
    return r


def region_ends(t: BalloonTree, region: Iterable[str]) -> EndSet:
    """End leaves contained in the region (the ends of the modelled set)."""
    r = check_region(t, region)
    return frozenset(v for v in r if t.is_end_leaf(v))


def compactly_equivalent(t: BalloonTree, a: Iterable[str], b: Iterable[str]) -> bool:
    """True iff the symmetric difference of the regions is compact,
    i.e. contains no End leaf."""
    ra, rb = check_region(t, a), check_region(t, b)
    return not any(t.is_end_leaf(v) for v in ra ^ rb)


def frontier_edges(t: BalloonTree, region: Iterable[str]):
    """Edges with exactly one endpoint inside the region, paired with the
    orientation sign (+1 if the child side is inside)."""
    r = check_region(t, region)
    out = []
    for (p, c) in t.edges:
        pin, cin = p in r, c in r
        if pin != cin:
            out.append(((p, c), 1 if cin else -1))
    return out


# -- clopen algebra on End leaves -------------------------------------------


def _check_ends(t: BalloonTree, s: Iterable[str]) -> EndSet:
    es = frozenset(s)
    foreign = es - t.end_leaf_set
    if foreign:
        raise MalformedRegionError(
            f"end set references non-End nodes: {sorted(foreign)}"
        )
    return es


def end_union(t: BalloonTree, a: Iterable[str], b: Iterable[str]) -> EndSet:
    return _check_ends(t, a) | _check_ends(t, b)


def end_intersection(t: BalloonTree, a: Iterable[str], b: Iterable[str]) -> EndSet:
    return _check_ends(t, a) & _check_ends(t, b)


def end_complement(t: BalloonTree, a: Iterable[str]) -> EndSet:
    return t.end_leaf_set - _check_ends(t, a)


def ends_disjoint(t: BalloonTree, a: Iterable[str], b: Iterable[str]) -> bool:
    return not (_check_ends(t, a) & _check_ends(t, b))
