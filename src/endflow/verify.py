"""Randomized invariant suites, shared by the CLI and the acceptance tests.

A suite is a check of one case: called with a generator, it draws one
instance and yields a message for each property that fails there, so a
case that yields nothing held exactly.  :func:`run_suite` is the only
code that seeds a case's generator (one per case, so any case can be
rerun alone), loops over the cases, labels each message ``case i:`` (and
a case that raises as its failure) and builds the report dict of the
case count and the failure list.
``solve_flux_by_elimination`` is the independent oracle for the forced
flux: it sets up the conservation equations over the edges and solves
them by plain Gaussian elimination, never looking at subtree sums.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Callable, Dict, Iterator, List

from .charge import EndCharge, charge_eval, linear_combine, validate_charge
from .errors import InfeasibleTransferError
from .extmath import is_inf
from .gen import (
    random_morphism,
    random_preserving_word,
    random_region,
    random_star,
    random_state,
    random_tree,
    random_valid_charge,
    refine_ends,
)
from .measure import base_state, j_value, mass, mu_equivalent
from .morphism import check_diagram, push_charge, push_measure
from .raystar import (
    charge_from_definition,
    compare_oracle,
    iset_mass,
    iset_subtract,
    oracle_cuts,
    preimage_intervals,
    realize_word,
    region_intervals,
)
from .section import build_section, factorize, forced_flux, retract
from .transport import (
    apply_word,
    charge_of_word,
    concat,
    extensionally_equal,
    invert_word,
    is_measure_preserving,
    region_transfer,
)
from .tree import BalloonTree, region_ends


def solve_flux_by_elimination(tree: BalloonTree, a: EndCharge) -> Dict:
    """Edge fluxes from the linear system: divergence zero at every block
    node except the root, and prescribed flux into each End leaf."""
    edges = list(tree.edges)
    idx = {e: i for i, e in enumerate(edges)}
    rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []
    for v in tree.block_nodes:
        if v == tree.root:
            continue
        row = [Fraction(0)] * len(edges)
        row[idx[(tree.parent[v], v)]] = Fraction(1)
        for c in tree.child_map(v):
            row[idx[(v, c)]] = Fraction(-1)
        rows.append(row)
        rhs.append(Fraction(0))
    for leaf in tree.end_leaves:
        row = [Fraction(0)] * len(edges)
        row[idx[(tree.parent[leaf], leaf)]] = Fraction(1)
        rows.append(row)
        rhs.append(a.values[leaf])
    n, m = len(rows), len(edges)
    solved = [Fraction(0)] * m
    r = 0
    for col in range(m):
        piv = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rhs[r], rhs[piv] = rhs[piv], rhs[r]
        f = rows[r][col]
        rows[r] = [x / f for x in rows[r]]
        rhs[r] = rhs[r] / f
        for i in range(n):
            if i != r and rows[i][col] != 0:
                g = rows[i][col]
                rows[i] = [x - g * y for x, y in zip(rows[i], rows[r])]
                rhs[i] = rhs[i] - g * rhs[r]
        r += 1
    for i in range(r):
        lead = next((j for j in range(m) if rows[i][j] != 0), None)
        if lead is not None:
            solved[lead] = rhs[i]
    return {e: solved[idx[e]] for e in edges}


def _equivalent_regions(rng: Random, nodes, infinite, count: int) -> list:
    """``count`` regions that differ pairwise by finite mass: each is a
    random half of the finite-mass nodes joined to one shared random half
    of the ``infinite`` ends.  Draws follow the order of ``nodes``, so the
    regions do not depend on the hash seed."""
    shared = frozenset(v for v in nodes if v in infinite and rng.random() < 0.5)
    finite = [v for v in nodes if v not in infinite]
    return [
        frozenset(v for v in finite if rng.random() < 0.5) | shared
        for _ in range(count)
    ]


def suite_section_round_trip(rng: Random) -> Iterator[str]:
    """Charge of the built section equals the input charge; flux equals
    the independent linear solve; zero maps to the empty word."""
    tree = random_tree(rng, max_depth=rng.randint(2, 6), max_nodes=64)
    mu = base_state(tree)
    a = random_valid_charge(rng, tree, mu)
    word = build_section(tree, mu, a)
    if a.is_zero():
        if len(word) != 0:
            yield "zero charge gave a nonempty word"
        return
    if not is_measure_preserving(word):
        yield "section word not preserving"
        return
    if charge_of_word(word) != a:
        yield "charge round trip failed"
    _, flux = apply_word(word)
    oracle = solve_flux_by_elimination(tree, a)
    if flux.flux != oracle:
        yield "flux differs from the linear solve"
    if forced_flux(tree, a) != flux:
        yield "flux differs from the forced field"


def suite_homomorphism(rng: Random) -> Iterator[str]:
    """Charges add under concatenation and negate under inversion."""
    tree = random_tree(rng)
    mu = base_state(tree)
    w1 = random_preserving_word(rng, tree, mu)
    w2 = random_preserving_word(rng, tree, mu)
    c1, c2 = charge_of_word(w1), charge_of_word(w2)
    both = concat(w1, w2)
    if charge_of_word(both) != linear_combine(1, c1, 1, c2):
        yield "concat charge is not the sum"
    inv = invert_word(w1)
    if charge_of_word(inv) != linear_combine(-1, c1, 0, c1):
        yield "inverse charge is not negated"


def suite_j_algebra(rng: Random) -> Iterator[str]:
    """Difference-functional identities on random measures and regions."""
    tree = random_tree(rng)
    mu = random_state(rng, tree)
    infinite = {v for v in tree.end_leaves if is_inf(mu.tails[v])}
    finite_nodes = [v for v in tree.nodes if v not in infinite]
    A, B, C = _equivalent_regions(rng, tree.nodes, infinite, 3)
    # finite-mass difference: j(A,B) = mass(A) - mass(B)
    if not is_inf(mass(mu, A)) and not is_inf(mass(mu, B)):
        if j_value(mu, A, B) != mass(mu, A) - mass(mu, B):
            yield "j != mass difference"
    # cocycle
    jab = j_value(mu, A, B)
    jbc = j_value(mu, B, C)
    jac = j_value(mu, A, C)
    if jab + jbc != jac:
        yield "cocycle identity failed"
    # disjoint additivity; A1 and B1 are disjoint by construction
    D1 = frozenset(v for v in tree.nodes if v in A and rng.random() < 0.5)
    A1, B1 = A - D1, (B - A) | D1
    # build disjoint pairs mu-equivalent componentwise
    C1 = frozenset(v for v in finite_nodes if rng.random() < 0.5) | (
        A1 & infinite
    )
    D2 = frozenset(
        v for v in finite_nodes if rng.random() < 0.5
    ) | (B1 & infinite)
    C1, D2 = C1 - D2, D2 - C1
    if (
        mu_equivalent(mu, A1, C1)
        and mu_equivalent(mu, B1, D2)
        and not (C1 & D2)
    ):
        lhs = j_value(mu, A1 | B1, C1 | D2)
        rhs = j_value(mu, A1, C1) + j_value(mu, B1, D2)
        if lhs != rhs:
            yield "disjoint additivity failed"
    # region transfer equals the charge on the region's ends
    w = random_preserving_word(rng, tree, mu)
    cw = charge_of_word(w)
    R = random_region(rng, tree)
    if region_transfer(w, R) != charge_eval(cw, region_ends(tree, R)):
        yield "transfer != charge on ends"


def suite_pushforward(rng: Random) -> Iterator[str]:
    """The charge square commutes: push then charge equals charge then
    push, and pushforward preserves totals and admissibility."""
    pi = random_morphism(rng)
    if pi.validate():
        yield "generated morphism invalid"
        return
    mu = base_state(pi.source)
    w = random_preserving_word(rng, pi.source, mu, avoid=pi.collapsed_nodes)
    if not check_diagram(pi, mu, w):
        yield "charge square does not commute"
    sigma = random_state(rng, pi.source)
    nu = push_measure(pi, sigma)
    if nu.validate():
        yield "pushed measure invalid"
    a = random_valid_charge(rng, pi.source)
    if not validate_charge(push_measure(pi, base_state(pi.source)), push_charge(pi, a)):
        yield "pushed charge not admissible"
    # difference functional commutes with the pushforward
    infinite = {v for v in pi.target.end_leaves if is_inf(nu.tails[v])}
    A, B = _equivalent_regions(rng, pi.target.nodes, infinite, 2)
    preA = frozenset(v for v in pi.source.nodes if pi.node_map[v] in A)
    preB = frozenset(v for v in pi.source.nodes if pi.node_map[v] in B)
    if j_value(nu, A, B) != j_value(sigma, preA, preB):
        yield "pushforward difference identity failed"


def suite_factorization(rng: Random) -> Iterator[str]:
    """Kernel part has zero charge, the section times the kernel is the
    word back, and the retraction is charge-linear with fixed kernel."""
    tree = random_tree(rng)
    mu = base_state(tree)
    w = random_preserving_word(rng, tree, mu)
    kernel, a = factorize(w)
    if not charge_of_word(kernel).is_zero():
        yield "kernel charge nonzero"
    s = build_section(tree, mu, a)
    if not extensionally_equal(concat(s, kernel), w):
        yield "section * kernel != word"
    if not extensionally_equal(retract(w, 0), w):
        yield "retract at 0 is not the word"
    if not charge_of_word(retract(w, 1)).is_zero():
        yield "retract at 1 not in the kernel"
    tau = Fraction(rng.randint(1, 3), 4)
    got = charge_of_word(retract(w, tau))
    want = linear_combine(1 - tau, a, 0, a)
    if got != want:
        yield "retract charge not linear"
    if not extensionally_equal(retract(kernel, tau), kernel):
        yield "kernel word moved by retract"


def suite_oracle_1d(rng: Random) -> Iterator[str]:
    """Flux charge equals the set-difference charge on ray stars, at
    three tail cuts."""
    star = random_star(rng)
    tree = star.to_tree()
    mu = base_state(tree)
    w = random_preserving_word(rng, tree, mu)
    h = realize_word(star, w)
    expected = charge_of_word(w)
    for cut in oracle_cuts(h, 3):
        got = charge_from_definition(star, h, cut)
        if got != expected:
            yield f"cut {cut} disagrees"
            break
    # concrete difference identity by interval arithmetic
    infinite = {
        star.end_id(j) for j in range(star.ray_count) if is_inf(star.tails[j])
    }
    A, B = (
        region_intervals(star, region)
        for region in _equivalent_regions(rng, tree.nodes, infinite, 2)
    )
    preA = preimage_intervals(h, A)
    preB = preimage_intervals(h, B)
    lhs = iset_mass(iset_subtract(preA, preB)) - iset_mass(
        iset_subtract(preB, preA)
    )
    rhs = iset_mass(
        preimage_intervals(h, iset_subtract(A, B))
    ) - iset_mass(preimage_intervals(h, iset_subtract(B, A)))
    if lhs != rhs:
        yield "interval difference identity failed"


def suite_section_oracle(rng: Random) -> Iterator[str]:
    """Flux charge equals the set-difference charge on words the section
    builds, not drawn move by move: a section of a drawn charge, the
    kernel of a drawn word's factorization and that word retracted at
    tau = k/8, on a star of up to 5 rays of up to 5 cells."""
    star = random_star(rng, max_rays=5, max_depth=5)
    tree = star.to_tree()
    mu = base_state(tree)
    a = random_valid_charge(rng, tree, mu)
    w = random_preserving_word(rng, tree, mu)
    tau = Fraction(rng.randint(1, 7), 8)
    words = {
        "section": build_section(tree, mu, a),
        "kernel": factorize(w)[0],
        f"retract at {tau}": retract(w, tau),
    }
    for name, word in words.items():
        if not compare_oracle(star, word):
            yield f"{name} word: the definition disagrees"


def suite_feasibility_sentinel(rng: Random) -> Iterator[str]:
    """No InfeasibleTransferError across valid random sections."""
    tree = random_tree(rng, max_depth=rng.randint(2, 5), max_nodes=40)
    mu = base_state(tree)
    a = random_valid_charge(rng, tree, mu)
    try:
        build_section(tree, mu, a)
    except InfeasibleTransferError as e:
        yield f"sentinel fired: {e}"


def suite_truncation(rng: Random) -> Iterator[str]:
    """Refining the ends two levels deeper leaves every shared-cut flux
    unchanged."""
    tree = random_tree(rng, max_depth=rng.randint(2, 4), max_nodes=32)
    mu = base_state(tree)
    a = random_valid_charge(rng, tree, mu)
    fine = refine_ends(rng, tree)
    a_fine = EndCharge(fine, dict(a.values))
    _, flux = apply_word(build_section(tree, mu, a))
    _, flux_fine = apply_word(build_section(fine, base_state(fine), a_fine))
    for (p, c) in tree.edges:
        coarse = flux[(p, c)]
        if (p, c) in flux_fine.flux:
            refined = flux_fine[(p, c)]
        else:
            # leaf edge: the same cut is now the edge into the chain
            # head, which sits at the leaf's old position
            pos = tree.child_map(p).index(c)
            refined = flux_fine[(p, fine.child_map(p)[pos])]
        if coarse != refined:
            yield f"flux changed across edge {(p, c)}"
            break


SUITES: Dict[str, Callable[[Random], Iterator[str]]] = {
    "section_round_trip": suite_section_round_trip,
    "homomorphism": suite_homomorphism,
    "j_algebra": suite_j_algebra,
    "pushforward": suite_pushforward,
    "factorization": suite_factorization,
    "oracle_1d": suite_oracle_1d,
    "section_oracle": suite_section_oracle,
    "feasibility_sentinel": suite_feasibility_sentinel,
    "truncation": suite_truncation,
}


def run_suite(name: str, seed: int, cases: int, first: int = 0) -> dict:
    """Run ``cases`` cases of one suite, from case ``first`` on, and report
    their failures, each labelled ``case i:``.  Case ``i`` draws on its own
    generator, seeded by the run's seed, the suite's name and ``i``, so it
    draws the same instance whichever cases and suites run with it, and a
    failing case can be rerun alone.  A case that raises fails with the
    exception, after the messages it yielded, and the next case still
    runs."""
    check = SUITES[name]
    failures = []
    for i in range(first, first + cases):
        try:
            for msg in check(Random(f"{seed}:{name}:{i}")):
                failures.append(f"case {i}: {msg}")
        except Exception as e:
            failures.append(f"case {i}: raised {type(e).__name__}: {e}")
    return {"name": name, "cases": cases, "failures": failures}
