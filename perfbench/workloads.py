"""Seeded workloads of the endflow benchmark.

Every workload is a list of *rounds*; a round is a fixed pattern of
requests, so any prefix of whole rounds has the same mix of sizes for
every seed.  The seed only draws masses, charges and words.  Requests
are plain JSON documents: each operation parses its inputs afresh, so
cycling over the rounds repeats the same work (no tree object carries a
warm cache into the next pass), as for independent callers.

Each request kind has a ``run`` step (timed: what a caller of the
library or the CLI pays) and a ``verify`` step (untimed: exact checks of
the output against values known from generation, plus output size and
the largest rational it contains).
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from random import Random

import endflow
from endflow import cli, gen, serialize
from endflow.extmath import is_inf

class Workload:
    def __init__(self, name, rounds, window, warmup):
        self.name = name
        self.rounds = rounds
        # whole rounds whose outputs give the counts (word_moves, max_bits,
        # digest) and which the traced run covers; always completed
        self.window = window
        self.warmup = warmup


# -- input generation -----------------------------------------------------------


def _block_mass(rng):
    return Fraction(rng.randint(4, 12), 4)


def binary_tree(rng, depth):
    """Complete binary tree: blocks above ``depth``, infinite ends at it."""
    children, weights, tails = {}, {}, {}
    stack = [("", 0)]
    while stack:
        path, d = stack.pop()
        v = "n" + path
        if d == depth:
            tails[v] = endflow.INF
            continue
        weights[v] = _block_mass(rng)
        children[v] = ("n" + path + "0", "n" + path + "1")
        stack.append((path + "1", d + 1))
        stack.append((path + "0", d + 1))
    return endflow.BalloonTree(
        root="n", children=children, weights=weights, tails=tails
    )


def chain_star(rng, depth, rays=4):
    cells = tuple(
        tuple(_block_mass(rng) for _ in range(depth)) for _ in range(rays)
    )
    return endflow.RayStar(
        Fraction(rng.randint(4, 12), 2), cells, (endflow.INF,) * rays
    )


# charge magnitudes, used in turn: a fixed multiset per tree size
_AMOUNTS = (Fraction(3, 4), Fraction(1, 2), Fraction(1), Fraction(1, 4))


def paired_charge(rng, leaves):
    """Admissible charge: magnitudes 3/4, 1/2, 1, 1/4 in turn, each paired
    with its negative, spread over the leaves in random order.  Against
    block masses of 1 to 3 this keeps the number of halving installments,
    and so the cost of a section, steady from seed to seed: drawing the
    magnitudes too (a 4-ray chain has only two) made it swing widely."""
    half = len(leaves) // 2
    amounts = [_AMOUNTS[i % len(_AMOUNTS)] for i in range(half)]
    values = amounts + [-x for x in amounts] + [Fraction(0)] * (len(leaves) % 2)
    rng.shuffle(values)
    return dict(zip(leaves, values))


def leaf_path(tree, a, b):
    up_a, up_b = [a], [b]
    while up_a[-1] != tree.root:
        up_a.append(tree.parent[up_a[-1]])
    while up_b[-1] != tree.root:
        up_b.append(tree.parent[up_b[-1]])
    on_a = {v: i for i, v in enumerate(up_a)}
    j = next(j for j, v in enumerate(up_b) if v in on_a)
    return up_a[: on_a[up_b[j]] + 1] + up_b[:j][::-1]


def _block_patch(rng, tree, blocks, avoid):
    start = rng.choice(blocks)
    if start in avoid:
        return None
    patch = {start}
    for _ in range(rng.randint(1, 4)):
        grow = []
        for v in patch:
            p = tree.parent.get(v)
            if p is not None and p not in patch and p not in avoid:
                grow.append(p)
            for c in tree.child_map(v):
                if c not in patch and c not in avoid and not tree.is_end_leaf(c):
                    grow.append(c)
        if not grow:
            break
        patch.add(rng.choice(sorted(grow)))
    return patch if len(patch) > 1 else None


def preserving_word(rng, tree, transfers, shuffles, avoid=frozenset()):
    """A measure-preserving move list and its end charge, built without
    the section: tail-to-tail transfers between infinite ends, conjugated
    by block shuffles that are undone at the end.  Every stop on a
    transfer route receives before it sends, so positivity always holds."""
    masses = {v: tree.weights[v] for v in tree.block_nodes}
    blocks = sorted(masses)
    moves, undo = [], []
    for _ in range(shuffles):
        patch = _block_patch(rng, tree, blocks, avoid)
        if patch is None:
            continue
        order = sorted(patch)
        total = sum(masses[v] for v in order)
        shares = [rng.randint(1, 6) for _ in order]
        new = {v: total * s / sum(shares) for v, s in zip(order, shares)}
        undo.append(endflow.Rearrange(patch, {v: masses[v] for v in order}))
        moves.append(endflow.Rearrange(patch, new))
        masses.update(new)
    infinite = [v for v in tree.end_leaves if is_inf(tree.tails[v])]
    charge = {v: Fraction(0) for v in tree.end_leaves}
    for _ in range(transfers):
        src, dst = rng.sample(infinite, 2)
        route = leaf_path(tree, src, dst)
        if avoid.intersection(route):
            continue
        x = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        for a, b in zip(route, route[1:]):
            if tree.parent.get(b) == a:
                moves.append(endflow.BalloonMove((a, b), x))
            else:
                moves.append(endflow.BalloonMove((b, a), -x))
        charge[src] -= x
        charge[dst] += x
    moves.extend(reversed(undo))
    return moves, charge


def _charge_doc(values):
    """A charge's leaf values as the flat JSON mapping the CLI reads and
    writes."""
    return {v: str(x) for v, x in sorted(values.items())}


def _word_doc(tree, moves):
    word = endflow.MoveWord(tree, endflow.base_state(tree), tuple(moves))
    return serialize.word_to_json(word)


def _section_request(tree, values):
    return {
        "kind": "section",
        "tree": serialize.tree_to_json(tree),
        "charge": _charge_doc(values),
    }


def _wide_request(rng, depth, workdir, r, j):
    tree = binary_tree(rng, depth)
    return _section_request(tree, paired_charge(rng, tree.end_leaves))


def _deep_request(rng, depth, workdir, r, j):
    tree = chain_star(rng, depth).to_tree()
    return _section_request(tree, paired_charge(rng, tree.end_leaves))


def _oracle_request(rng, shape, workdir, r, j):
    depth, transfers = shape
    star = chain_star(rng, depth)
    tree = star.to_tree()
    moves, charge = preserving_word(rng, tree, transfers, shuffles=4)
    return {
        "kind": "oracle",
        "star": serialize.star_to_json(star),
        "word": _word_doc(tree, moves),
        "expected": _charge_doc(charge),
    }


def _mix_request(rng, kind, workdir, r, j):
    """One small request of the given kind on its own random tree.  The
    depth limit cycles through 2..6 over rounds and kinds instead of being
    drawn, so every seed has the same mix of small and large trees."""
    if kind == "diagram":
        pi = gen.random_morphism(rng)
        moves, _ = preserving_word(
            rng, pi.source, transfers=3, shuffles=2, avoid=pi.collapsed_nodes
        )
        return {
            "kind": kind,
            "morphism": serialize.morphism_to_json(pi),
            "word": _word_doc(pi.source, moves),
        }
    tree = gen.random_tree(rng, max_depth=2 + (r + j) % 5, max_nodes=64)
    req = {"kind": kind, "tree": serialize.tree_to_json(tree)}
    if kind in ("section", "cli_section"):
        req["charge"] = _charge_doc(gen.random_valid_charge(rng, tree).values)
    else:
        moves, charge = preserving_word(rng, tree, transfers=3, shuffles=2)
        req["word"] = _word_doc(tree, moves)
        req["expected"] = _charge_doc(charge)
    if kind.startswith("cli_"):
        files = {}
        for key in ("tree", "charge", "word"):
            if key in req:
                files[key] = os.path.join(workdir, f"r{r}_{j}_{key}.json")
                with open(files[key], "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(req[key]))
        files["out"] = os.path.join(workdir, f"r{r}_{j}_out.json")
        req["files"] = files
    return req


MIX_KINDS = (
    "section",
    "factorize",
    "retract",
    "charge",
    "diagram",
    "cli_section",
    "cli_factorize",
    "cli_charge",
)

# workload: (request maker, round pattern, tiny pattern, rounds in the
# corpus, window rounds, warm-up rounds).  The corpus holds about as many
# rounds as a 25-second run times (small_mix: a quarter, ~1500 requests),
# so a run's figures average over many distinct inputs; a longer run
# repeats it.  The window must finish
# well inside a run, since the traced run covers it twice.
PLANS = {
    "section_wide": (_wide_request, (8, 8, 8, 9), (2, 3), 12, 3, 1),
    "section_deep": (_deep_request, (64, 96, 128), (3, 5), 12, 5, 1),
    # (depth, transfers): ~300 edge moves per word at every depth
    "oracle_star": (
        _oracle_request, ((16, 9), (24, 6), (32, 5)), ((2, 2), (3, 2)), 30, 8, 1
    ),
    "small_mix": (_mix_request, MIX_KINDS, MIX_KINDS, 192, 96, 10),
}
WORKLOADS = tuple(PLANS)


def build(name, seed, tiny, workdir):
    """Generate the workload's rounds from the seed (the set-up step)."""
    make, pattern, tiny_pattern, corpus, window, warmup = PLANS[name]
    if tiny:
        pattern, corpus, window, warmup = tiny_pattern, 2, 1, 1
    rng = Random(f"{name}:{seed}")
    rounds = [
        [make(rng, item, workdir, r, j) for j, item in enumerate(pattern)]
        for r in range(corpus)
    ]
    return Workload(name, rounds, window, warmup)


# -- operations -------------------------------------------------------------------


def _parse_tree(doc):
    tree = serialize.tree_from_json(doc)
    problems = endflow.validate_tree(tree)
    if problems:
        raise ValueError("invalid tree: " + "; ".join(problems))
    return tree


def _charge(tree, doc):
    return endflow.EndCharge(tree, {v: Fraction(x) for v, x in doc.items()})


def _bits(x):
    if not isinstance(x, Fraction):
        return 0
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def word_bits(word):
    best = 0
    for mv in word.moves:
        if isinstance(mv, endflow.BalloonMove):
            best = max(best, _bits(mv.amount))
        else:
            best = max([best] + [_bits(m) for m in mv.masses.values()])
    return best


def charge_bits(charge):
    return max([0] + [_bits(x) for x in charge.values.values()])


class Outcome:
    """What verification learned about one operation's output."""

    __slots__ = ("text", "moves", "bits", "error")

    def __init__(self, text, moves=0, bits=0, error=None):
        self.text, self.moves, self.bits, self.error = text, moves, bits, error


def _lib_word_request(req):
    tree = _parse_tree(req["tree"])
    mu = endflow.base_state(tree)
    return tree, serialize.word_from_json(tree, mu, req["word"])


def run_section(req, tracer):
    tree = _parse_tree(req["tree"])
    mu = endflow.base_state(tree)
    a = serialize.charge_from_json(tree, req["charge"])
    word = endflow.build_section(tree, mu, a)
    back = endflow.charge_of_word(word)
    text = json.dumps(serialize.word_to_json(word), sort_keys=True)
    return tree, a, word, back, text


def verify_section(req, state):
    tree, a, word, back, text = state
    out = Outcome(text, len(word), word_bits(word))
    if back != a:
        out.error = "section charge round trip failed"
    elif endflow.apply_word(word)[1] != endflow.forced_flux(tree, a):
        out.error = "section flux differs from the forced flux"
    return out


def run_oracle(req, tracer):
    star = serialize.star_from_json(req["star"])
    tree = star.to_tree()
    word = serialize.word_from_json(tree, endflow.base_state(tree), req["word"])
    h = endflow.realize_word(star, word)
    flux_charge = endflow.charge_of_word(word)
    base_cut = h.last_breakpoint() + 1
    defs = [
        endflow.charge_from_definition(star, h, base_cut + 7 * k)
        for k in range(3)
    ]
    text = json.dumps(
        {
            "word_charge": _charge_doc(flux_charge.values),
            "definition_charges": [_charge_doc(d.values) for d in defs],
            "last_breakpoint": str(base_cut - 1),
            "pieces": len(h.pieces),
        },
        sort_keys=True,
    )
    return tree, word, h, flux_charge, defs, text


def verify_oracle(req, state):
    tree, word, h, flux_charge, defs, text = state
    want = _charge(tree, req["expected"])
    bits = max(
        [charge_bits(d) for d in defs]
        + [_bits(x) for p in h.pieces for x in vars(p).values()]
    )
    out = Outcome(text, len(word), bits)
    if flux_charge != want:
        out.error = "flux charge differs from the generated charge"
    elif any(d != want for d in defs):
        out.error = "definition charge differs from the flux charge"
    return out


def run_factorize(req, tracer):
    tree, word = _lib_word_request(req)
    kernel, a = endflow.factorize(word)
    doc = {"charge": _charge_doc(a.values), "kernel": serialize.word_to_json(kernel)}
    return tree, kernel, a, json.dumps(doc, sort_keys=True)


def verify_factorize(req, state):
    tree, kernel, a, text = state
    out = Outcome(text, len(kernel), max(word_bits(kernel), charge_bits(a)))
    if a != _charge(tree, req["expected"]):
        out.error = "factorize charge differs from the generated charge"
    elif not endflow.charge_of_word(kernel).is_zero():
        out.error = "kernel word has nonzero charge"
    return out


def run_retract(req, tracer):
    tree, word = _lib_word_request(req)
    r = endflow.retract(word, Fraction(1, 2))
    return tree, r, json.dumps(serialize.word_to_json(r), sort_keys=True)


def verify_retract(req, state):
    tree, r, text = state
    out = Outcome(text, len(r), word_bits(r))
    want = {v: Fraction(x) / 2 for v, x in req["expected"].items()}
    if endflow.charge_of_word(r) != endflow.EndCharge(tree, want):
        out.error = "retract(., 1/2) does not halve the charge"
    return out


def run_charge(req, tracer):
    tree, word = _lib_word_request(req)
    c = endflow.charge_of_word(word)
    return tree, c, json.dumps(_charge_doc(c.values), sort_keys=True)


def verify_charge(req, state):
    tree, c, text = state
    out = Outcome(text, 0, charge_bits(c))
    if c != _charge(tree, req["expected"]):
        out.error = "charge_of_word differs from the generated charge"
    return out


def run_diagram(req, tracer):
    pi = serialize.morphism_from_json(req["morphism"])
    problems = pi.validate()
    if problems:
        raise ValueError("invalid morphism: " + "; ".join(problems))
    mu = endflow.base_state(pi.source)
    word = serialize.word_from_json(pi.source, mu, req["word"])
    ok = endflow.check_diagram(pi, mu, word)
    return ok, json.dumps({"commutes": ok})


def verify_diagram(req, state):
    ok, text = state
    return Outcome(text, error=None if ok is True else "charge square fails")


def _run_cli(req, tracer, command, *extra):
    files = req["files"]
    argv = [command, "--tree", files["tree"], *extra, "--out", files["out"]]
    with tracer.span("cli." + command):
        return cli.main(argv)


def _cli_outcome(req, code):
    if code != 0:
        return None, Outcome("", error=f"CLI exit code {code}")
    with open(req["files"]["out"], encoding="utf-8") as fh:
        text = fh.read()
    return json.loads(text), Outcome(text)


def run_cli_section(req, tracer):
    return _run_cli(req, tracer, "section", "--charge", req["files"]["charge"])


def verify_cli_section(req, code):
    doc, out = _cli_outcome(req, code)
    if doc is None:
        return out
    tree = _parse_tree(req["tree"])
    word = serialize.word_from_json(tree, endflow.base_state(tree), doc)
    out.moves, out.bits = len(word), word_bits(word)
    if endflow.charge_of_word(word) != _charge(tree, req["charge"]):
        out.error = "CLI section charge round trip failed"
    return out


def run_cli_factorize(req, tracer):
    return _run_cli(req, tracer, "factorize", "--word", req["files"]["word"])


def verify_cli_factorize(req, code):
    doc, out = _cli_outcome(req, code)
    if doc is None:
        return out
    tree = _parse_tree(req["tree"])
    kernel = serialize.word_from_json(tree, endflow.base_state(tree), doc["kernel"])
    a = _charge(tree, doc["charge"])
    out.moves, out.bits = len(kernel), max(word_bits(kernel), charge_bits(a))
    if a != _charge(tree, req["expected"]):
        out.error = "CLI factorize charge differs from the generated charge"
    elif not endflow.charge_of_word(kernel).is_zero():
        out.error = "CLI kernel word has nonzero charge"
    return out


def run_cli_charge(req, tracer):
    return _run_cli(req, tracer, "charge", "--word", req["files"]["word"])


def verify_cli_charge(req, code):
    doc, out = _cli_outcome(req, code)
    if doc is None:
        return out
    tree = _parse_tree(req["tree"])
    c = _charge(tree, doc)
    out.bits = charge_bits(c)
    if c != _charge(tree, req["expected"]):
        out.error = "CLI charge differs from the generated charge"
    return out


KINDS = {
    "section": (run_section, verify_section),
    "oracle": (run_oracle, verify_oracle),
    "factorize": (run_factorize, verify_factorize),
    "retract": (run_retract, verify_retract),
    "charge": (run_charge, verify_charge),
    "diagram": (run_diagram, verify_diagram),
    "cli_section": (run_cli_section, verify_cli_section),
    "cli_factorize": (run_cli_factorize, verify_cli_factorize),
    "cli_charge": (run_cli_charge, verify_cli_charge),
}
