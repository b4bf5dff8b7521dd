"""Randomized invariant suites, shared by the CLI and the acceptance tests.

Each suite returns a report dict with the case count and a list of
failure messages; an empty list means the property held exactly on every
instance.  ``solve_flux_by_elimination`` is the independent oracle for
the forced flux: it sets up the conservation equations over the edges and
solves them by plain Gaussian elimination, never looking at subtree sums.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Callable, Dict, List

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
    iset_mass,
    iset_subtract,
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
    col = 0
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


def _report(name: str, cases: int, failures: List[str]) -> dict:
    return {"name": name, "cases": cases, "failures": failures}


def suite_section_round_trip(rng: Random, cases: int) -> dict:
    """Charge of the built section equals the input charge; flux equals
    the independent linear solve; zero maps to the empty word."""
    failures = []
    for i in range(cases):
        tree = random_tree(rng, max_depth=rng.randint(2, 6), max_nodes=64)
        mu = base_state(tree)
        a = random_valid_charge(rng, tree, mu)
        word = build_section(tree, mu, a)
        if a.is_zero():
            if len(word) != 0:
                failures.append(f"case {i}: zero charge gave a nonempty word")
            continue
        if not is_measure_preserving(word):
            failures.append(f"case {i}: section word not preserving")
            continue
        if charge_of_word(word) != a:
            failures.append(f"case {i}: charge round trip failed")
        _, flux = apply_word(word)
        oracle = solve_flux_by_elimination(tree, a)
        if flux.flux != oracle:
            failures.append(f"case {i}: flux differs from the linear solve")
        if forced_flux(tree, a) != flux:
            failures.append(f"case {i}: flux differs from the forced field")
    return _report("section_round_trip", cases, failures)


def suite_homomorphism(rng: Random, cases: int) -> dict:
    """Charges add under concatenation and negate under inversion."""
    failures = []
    for i in range(cases):
        tree = random_tree(rng)
        mu = base_state(tree)
        w1 = random_preserving_word(rng, tree, mu)
        w2 = random_preserving_word(rng, tree, mu)
        c1, c2 = charge_of_word(w1), charge_of_word(w2)
        both = concat(w1, w2)
        if charge_of_word(both) != linear_combine(1, c1, 1, c2):
            failures.append(f"case {i}: concat charge is not the sum")
        inv = invert_word(w1)
        if charge_of_word(inv) != linear_combine(-1, c1, 0, c1):
            failures.append(f"case {i}: inverse charge is not negated")
    return _report("homomorphism", cases, failures)


def suite_j_algebra(rng: Random, cases: int) -> dict:
    """Difference-functional identities on random measures and regions."""
    failures = []
    for i in range(cases):
        tree = random_tree(rng)
        mu = random_state(rng, tree)
        nodes = list(tree.nodes)
        infinite = {
            v for v in tree.end_leaves if is_inf(mu.tails[v])
        }
        finite_nodes = [v for v in nodes if v not in infinite]
        A = frozenset(v for v in finite_nodes if rng.random() < 0.5)
        B = frozenset(v for v in finite_nodes if rng.random() < 0.5)
        C = frozenset(v for v in finite_nodes if rng.random() < 0.5)
        shared = frozenset(v for v in infinite if rng.random() < 0.5)
        A, B, C = A | shared, B | shared, C | shared
        # finite-mass difference: j(A,B) = mass(A) - mass(B)
        if not is_inf(mass(mu, A)) and not is_inf(mass(mu, B)):
            if j_value(mu, A, B) != mass(mu, A) - mass(mu, B):
                failures.append(f"case {i}: j != mass difference")
        # cocycle
        jab = j_value(mu, A, B)
        jbc = j_value(mu, B, C)
        jac = j_value(mu, A, C)
        if jab + jbc != jac:
            failures.append(f"case {i}: cocycle identity failed")
        # disjoint additivity
        D1 = frozenset(v for v in A if rng.random() < 0.5)
        A1, B1 = A - D1, (B - A) | (A & D1)
        # build disjoint pairs mu-equivalent componentwise
        if not (A1 & B1):
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
                    failures.append(f"case {i}: disjoint additivity failed")
        # region transfer equals the charge on the region's ends
        w = random_preserving_word(rng, tree, mu)
        cw = charge_of_word(w)
        R = random_region(rng, tree)
        if region_transfer(w, R) != charge_eval(cw, region_ends(tree, R)):
            failures.append(f"case {i}: transfer != charge on ends")
    return _report("j_algebra", cases, failures)


def suite_pushforward(rng: Random, cases: int) -> dict:
    """The charge square commutes: push then charge equals charge then
    push, and pushforward preserves totals and admissibility."""
    failures = []
    for i in range(cases):
        pi = random_morphism(rng)
        if pi.validate():
            failures.append(f"case {i}: generated morphism invalid")
            continue
        mu = base_state(pi.source)
        w = random_preserving_word(
            rng, pi.source, mu, avoid=pi.collapsed_nodes
        )
        if not check_diagram(pi, mu, w):
            failures.append(f"case {i}: charge square does not commute")
        sigma = random_state(rng, pi.source)
        nu = push_measure(pi, sigma)
        if nu.validate():
            failures.append(f"case {i}: pushed measure invalid")
        a = random_valid_charge(rng, pi.source)
        if not validate_charge(push_measure(pi, base_state(pi.source)), push_charge(pi, a)):
            failures.append(f"case {i}: pushed charge not admissible")
        # difference functional commutes with the pushforward
        infinite = {
            v for v in pi.target.end_leaves if is_inf(nu.tails[v])
        }
        finite_nodes = [v for v in pi.target.nodes if v not in infinite]
        shared = frozenset(v for v in infinite if rng.random() < 0.5)
        A = frozenset(v for v in finite_nodes if rng.random() < 0.5) | shared
        B = frozenset(v for v in finite_nodes if rng.random() < 0.5) | shared
        preA = frozenset(v for v in pi.source.nodes if pi.node_map[v] in A)
        preB = frozenset(v for v in pi.source.nodes if pi.node_map[v] in B)
        if j_value(nu, A, B) != j_value(sigma, preA, preB):
            failures.append(f"case {i}: pushforward difference identity failed")
    return _report("pushforward", cases, failures)


def suite_factorization(rng: Random, cases: int) -> dict:
    """Kernel part has zero charge, the section times the kernel is the
    word back, and the retraction is charge-linear with fixed kernel."""
    failures = []
    for i in range(cases):
        tree = random_tree(rng)
        mu = base_state(tree)
        w = random_preserving_word(rng, tree, mu)
        kernel, a = factorize(w)
        if not charge_of_word(kernel).is_zero():
            failures.append(f"case {i}: kernel charge nonzero")
        s = build_section(tree, mu, a)
        if not extensionally_equal(concat(s, kernel), w):
            failures.append(f"case {i}: section * kernel != word")
        if not extensionally_equal(retract(w, 0), w):
            failures.append(f"case {i}: retract at 0 is not the word")
        if not charge_of_word(retract(w, 1)).is_zero():
            failures.append(f"case {i}: retract at 1 not in the kernel")
        tau = Fraction(rng.randint(1, 3), 4)
        got = charge_of_word(retract(w, tau))
        want = linear_combine(1 - tau, a, 0, a)
        if got != want:
            failures.append(f"case {i}: retract charge not linear")
        if not extensionally_equal(retract(kernel, tau), kernel):
            failures.append(f"case {i}: kernel word moved by retract")
    return _report("factorization", cases, failures)


def suite_oracle_1d(rng: Random, cases: int, cuts: int = 3) -> dict:
    """Flux charge equals the set-difference charge on ray stars, at
    several tail cuts."""
    failures = []
    for i in range(cases):
        star = random_star(rng)
        tree = star.to_tree()
        mu = base_state(tree)
        w = random_preserving_word(rng, tree, mu)
        h = realize_word(star, w)
        expected = charge_of_word(w)
        base_cut = h.last_breakpoint() + 1
        for k in range(cuts):
            cut = base_cut + k * 7
            got = charge_from_definition(star, h, cut)
            if got != expected:
                failures.append(f"case {i}: cut {cut} disagrees")
                break
        # concrete difference identity by interval arithmetic
        infinite = {
            star.end_id(j)
            for j in range(star.ray_count)
            if is_inf(star.tails[j])
        }
        finite_nodes = [v for v in tree.nodes if v not in infinite]
        shared = [v for v in infinite if rng.random() < 0.5]
        A = region_intervals(
            star, [v for v in finite_nodes if rng.random() < 0.5] + shared
        )
        B = region_intervals(
            star, [v for v in finite_nodes if rng.random() < 0.5] + shared
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
            failures.append(f"case {i}: interval difference identity failed")
    return _report("oracle_1d", cases, failures)


def suite_feasibility_sentinel(rng: Random, cases: int) -> dict:
    """No InfeasibleTransferError across valid random sections."""
    failures = []
    for i in range(cases):
        tree = random_tree(rng, max_depth=rng.randint(2, 5), max_nodes=40)
        mu = base_state(tree)
        a = random_valid_charge(rng, tree, mu)
        try:
            build_section(tree, mu, a)
        except InfeasibleTransferError as e:
            failures.append(f"case {i}: sentinel fired: {e}")
    return _report("feasibility_sentinel", cases, failures)


def suite_truncation(rng: Random, cases: int) -> dict:
    """Refining the ends two levels deeper leaves every shared-cut flux
    unchanged."""
    failures = []
    for i in range(cases):
        tree = random_tree(rng, max_depth=rng.randint(2, 4), max_nodes=32)
        mu = base_state(tree)
        a = random_valid_charge(rng, tree, mu)
        fine = refine_ends(rng, tree)
        a_fine = EndCharge(fine, dict(a.values))
        _, flux = apply_word(build_section(tree, mu, a))
        _, flux_fine = apply_word(
            build_section(fine, base_state(fine), a_fine)
        )
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
                failures.append(f"case {i}: flux changed across edge {(p, c)}")
                break
    return _report("truncation", cases, failures)


SUITES: Dict[str, Callable[[Random, int], dict]] = {
    "section_round_trip": suite_section_round_trip,
    "homomorphism": suite_homomorphism,
    "j_algebra": suite_j_algebra,
    "pushforward": suite_pushforward,
    "factorization": suite_factorization,
    "oracle_1d": suite_oracle_1d,
    "feasibility_sentinel": suite_feasibility_sentinel,
    "truncation": suite_truncation,
}


def run_suite(name: str, seed: int, cases: int) -> dict:
    """Run one suite on its own generator, seeded by the run's seed and
    the suite's name, so a suite draws the same cases alone or in
    :func:`run_all`."""
    return SUITES[name](Random(f"{seed}:{name}"), cases)


def run_all(seed: int, cases: int) -> List[dict]:
    return [run_suite(name, seed, cases) for name in SUITES]
