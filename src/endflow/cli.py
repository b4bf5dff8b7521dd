"""Batch command-line front end.

Commands operate on JSON files (schemas in the serialize module) and
write JSON to stdout or ``--out``.  All numeric output is exact-rational
strings; given the same inputs and seed the output is byte-identical.

Exit codes: 0 success, 2 validation failure, 3 internal invariant
violation (the feasibility sentinel or a broken ray-star realization),
4 I/O trouble.  A validation error raised by a word's move names the
move as ``word move i:``.

The argument parser is built once per process, on the first ``main()``
call, and reused by every later call; each call parses into a fresh
namespace and nothing mutates the parser after it is built.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache
from typing import Optional

from . import serialize
from .charge import EndCharge, validate_charge
from .errors import (
    EndflowError,
    InfeasibleTransferError,
    NonPositiveMassError,
    RealizationError,
)
from .extmath import frac_str, parse_frac
from .measure import MeasureState, base_state
from .morphism import TreeMorphism, push_charge, push_measure, push_word
from .raystar import RayStar, charge_from_definition, realize_word
from .section import build_section, factorize, retract
from .transport import MoveWord, apply_word, charge_of_word
from .tree import BalloonTree, validate_tree
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3
EXIT_IO = 4


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(doc, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@dataclass
class Scenario:
    """Everything a command references, loaded and validated."""

    tree: Optional[BalloonTree] = None
    measure: Optional[MeasureState] = None
    word: Optional[MoveWord] = None
    charge: Optional[EndCharge] = None
    morphism: Optional[TreeMorphism] = None
    star: Optional[RayStar] = None

    @classmethod
    def load(cls, args) -> "Scenario":
        """Load and validate every file the command names.

        The tree is ``--tree``, else the morphism's source, else the
        star's tree; the measure defaults to the tree's reference measure.
        """
        sc = cls()
        if getattr(args, "morphism", None):
            sc.morphism = serialize.morphism_from_json(
                _read_json(args.morphism)
            )
            _require_valid("morphism", sc.morphism.validate())
        if getattr(args, "star", None):
            try:
                sc.star = serialize.star_from_json(_read_json(args.star))
            except NonPositiveMassError as e:
                _require_valid("star", [str(e)])
        if getattr(args, "tree", None):
            sc.tree = serialize.tree_from_json(_read_json(args.tree))
        elif sc.morphism is not None:
            sc.tree = sc.morphism.source
        elif sc.star is not None:
            sc.tree = sc.star.to_tree()
        else:
            return sc
        _require_valid("tree", validate_tree(sc.tree))
        if getattr(args, "measure", None):
            sc.measure = serialize.state_from_json(
                sc.tree, _read_json(args.measure)
            )
            _require_valid("measure", sc.measure.validate())
        else:
            sc.measure = base_state(sc.tree)
        if getattr(args, "word", None):
            sc.word = serialize.word_from_json(
                sc.tree, sc.measure, _read_json(args.word)
            )
        if getattr(args, "charge", None):
            sc.charge = serialize.charge_from_json(
                sc.tree, _read_json(args.charge)
            )
        return sc


def _require_valid(what: str, problems: list):
    if problems:
        raise serialize.SchemaError(f"invalid {what}: " + "; ".join(problems))


def _require_at_least_one(flag: str, n: int):
    if n < 1:
        raise serialize.SchemaError(f"invalid {flag} {n}: need at least 1")


def _flat_charge(c) -> dict:
    return {v: frac_str(x) for v, x in sorted(c.values.items())}


def cmd_validate(args) -> int:
    report = {}
    ok = True
    tree = serialize.tree_from_json(_read_json(args.tree))
    report["tree"] = validate_tree(tree)
    ok = ok and not report["tree"]
    if not report["tree"]:
        mu = base_state(tree)
        if args.measure:
            mu = serialize.state_from_json(tree, _read_json(args.measure))
            report["measure"] = mu.validate()
            ok = ok and not report["measure"]
    # the charge and word checks need a valid tree and measure
    if ok:
        if args.charge:
            c = serialize.charge_from_json(tree, _read_json(args.charge))
            report["charge"] = (
                [] if validate_charge(mu, c) else ["charge not admissible"]
            )
            ok = ok and not report["charge"]
        if args.word:
            w = serialize.word_from_json(tree, mu, _read_json(args.word))
            try:
                apply_word(w)
                report["word"] = []
            except EndflowError as e:
                report["word"] = [str(e)]
                ok = False
    if args.morphism:
        pi = serialize.morphism_from_json(_read_json(args.morphism))
        source = [f"source tree: {p}" for p in validate_tree(pi.source)]
        report["morphism"] = source + pi.validate()
        ok = ok and not report["morphism"]
    if args.star:
        try:
            star = serialize.star_from_json(_read_json(args.star))
        except NonPositiveMassError as e:
            report["star"] = [str(e)]
        else:
            report["star"] = validate_tree(star.to_tree())
        ok = ok and not report["star"]
    report["valid"] = ok
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_charge(args) -> int:
    sc = Scenario.load(args)
    _emit(_flat_charge(charge_of_word(sc.word)), args.out)
    return EXIT_OK


def cmd_section(args) -> int:
    sc = Scenario.load(args)
    word = build_section(sc.tree, sc.measure, sc.charge)
    _emit(serialize.word_to_json(word), args.out)
    return EXIT_OK


def cmd_factorize(args) -> int:
    kernel, a = factorize(Scenario.load(args).word)
    _emit(
        {
            "charge": _flat_charge(a),
            "kernel": serialize.word_to_json(kernel),
        },
        args.out,
    )
    return EXIT_OK


def cmd_retract(args) -> int:
    sc = Scenario.load(args)
    try:
        tau = parse_frac(args.tau)
    except ValueError as e:
        raise serialize.SchemaError(f"--tau: {e}") from None
    _emit(serialize.word_to_json(retract(sc.word, tau)), args.out)
    return EXIT_OK


def cmd_push(args) -> int:
    sc = Scenario.load(args)
    pi = sc.morphism
    out = {"measure": serialize.state_to_json(push_measure(pi, sc.measure))}
    if sc.charge is not None:
        out["charge"] = _flat_charge(push_charge(pi, sc.charge))
    if sc.word is not None:
        out["word"] = serialize.word_to_json(push_word(pi, sc.word))
    _emit(out, args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    _require_at_least_one("--cuts", args.cuts)
    sc = Scenario.load(args)
    # the tagged replay names a failing move before the realization runs
    flux_charge = charge_of_word(sc.word)
    h = realize_word(sc.star, sc.word)
    base_cut = h.last_breakpoint() + 1
    defs = [
        charge_from_definition(sc.star, h, base_cut + 7 * k)
        for k in range(args.cuts)
    ]
    match = all(d == flux_charge for d in defs)
    _emit(
        {
            "word_charge": _flat_charge(flux_charge),
            "definition_charge": _flat_charge(defs[0]),
            "cuts": args.cuts,
            "match": match,
        },
        args.out,
    )
    return EXIT_OK if match else EXIT_INVARIANT


def cmd_verify(args) -> int:
    _require_at_least_one("--cases", args.cases)
    if args.suite and args.suite not in SUITES:
        raise serialize.SchemaError(f"unknown suite {args.suite!r}")
    names = [args.suite] if args.suite else SUITES
    reports = [run_suite(name, args.seed, args.cases) for name in names]
    failed = 0
    for rep in reports:
        status = "PASS" if not rep["failures"] else "FAIL"
        print(f"{status} {rep['name']} ({rep['cases']} cases)")
        failed += len(rep["failures"])
    _emit({"reports": reports, "failures": failed}, args.out)
    return EXIT_OK if failed == 0 else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endflow",
        description="End-charge calculus on balloon trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tree=True, measure=True):
        if tree:
            p.add_argument("--tree", required=True)
        if measure:
            p.add_argument("--measure")
        p.add_argument("--out")

    p = sub.add_parser("validate", help="validate input files")
    common(p)
    p.add_argument("--charge")
    p.add_argument("--word")
    p.add_argument("--morphism")
    p.add_argument("--star")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("charge", help="end charge of a word")
    common(p)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_charge)

    p = sub.add_parser("section", help="build a word with a given charge")
    common(p)
    p.add_argument("--charge", required=True)
    p.set_defaults(fn=cmd_section)

    p = sub.add_parser("factorize", help="split a word into kernel and charge")
    common(p)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_factorize)

    p = sub.add_parser("retract", help="slide a word toward the kernel")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--tau", required=True)
    p.set_defaults(fn=cmd_retract)

    p = sub.add_parser("push", help="push data along a tree morphism")
    p.add_argument("--morphism", required=True)
    p.add_argument("--measure")
    p.add_argument("--charge")
    p.add_argument("--word")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_push)

    p = sub.add_parser("oracle", help="compare flux and definition charges")
    p.add_argument("--star", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--cuts", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("verify", help="run the randomized invariant suites")
    p.add_argument("--cases", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suite")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except InfeasibleTransferError as e:
        print(f"internal feasibility violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except RealizationError as e:
        print(f"internal realization violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except (serialize.SchemaError, EndflowError, json.JSONDecodeError) as e:
        move = getattr(e, "move_index", None)
        where = "" if move is None else f"word move {move}: "
        print(f"validation error: {where}{e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
