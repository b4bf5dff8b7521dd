"""Batch command-line front end.

Commands operate on JSON files (schemas in the serialize module) and
write JSON to stdout or ``--out``.  All numeric output is exact-rational
strings; given the same inputs and seed the output is byte-identical.

Exit codes: 0 success, 2 validation failure, 3 internal invariant
violation (the feasibility sentinel or a broken ray-star realization),
4 I/O trouble.  A validation error raised by a word's move names the
move as ``word move i:``.  Every command reads its documents through
``Scenario.load``, which notes each document's problems: a command
refuses the first document that has any, and ``validate`` reports them
all.  Options are spelled in full; an abbreviation is refused.

The argument parser is built once per process, on the first ``main()``
call, and reused by every later call; each call parses into a fresh
namespace and nothing mutates the parser after it is built.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
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
from .raystar import RayStar, charge_from_definition, oracle_cuts, realize_word
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
        try:
            return json.load(fh, object_pairs_hook=serialize._unique_keys)
        except (json.JSONDecodeError, serialize.SchemaError):
            raise
        # bytes that are not UTF-8, nesting past the recursion limit, an
        # integer literal past the int digit limit
        except (UnicodeDecodeError, RecursionError, ValueError) as e:
            raise serialize.SchemaError(
                f"unreadable JSON in {path}: {e}"
            ) from None


def _emit(doc, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@dataclass
class Scenario:
    """Every document a command names, read in one order, and the
    problems each one has."""

    tree: Optional[BalloonTree] = None
    measure: Optional[MeasureState] = None
    word: Optional[MoveWord] = None
    charge: Optional[EndCharge] = None
    morphism: Optional[TreeMorphism] = None
    star: Optional[RayStar] = None
    problems: dict = field(default_factory=dict)

    @classmethod
    def load(cls, args) -> "Scenario":
        """Read the files the command names (morphism, star, tree, measure,
        word, charge) and note each document's problems; raise on one that
        cannot be read.  The tree is ``--tree``, else the morphism's source,
        else the star's tree.  The measure (by default the tree's reference
        measure) is read on a tree without problems, the word and the
        charge only when the measure has none either.
        """
        sc = cls()
        problems = sc.problems
        if getattr(args, "morphism", None):
            pi = serialize.morphism_from_json(_read_json(args.morphism))
            sc.morphism = pi
            source = validate_tree(pi.source)
            problems["morphism"] = (
                [f"source tree: {p}" for p in source]
                + [f"target tree: {p}" for p in validate_tree(pi.target)]
                + pi.validate()
            )
        if getattr(args, "star", None):
            try:
                sc.star = serialize.star_from_json(_read_json(args.star))
                # a star loads only from its canonical tree
                problems["star"] = []
            except NonPositiveMassError as e:
                problems["star"] = [str(e)]
        if getattr(args, "tree", None):
            sc.tree = serialize.tree_from_json(_read_json(args.tree))
            problems["tree"] = validate_tree(sc.tree)
        elif sc.morphism is not None:
            sc.tree = sc.morphism.source
            problems["tree"] = source
        elif sc.star is not None:
            sc.tree = sc.star.to_tree()
            problems["tree"] = validate_tree(sc.tree)
        else:
            return sc
        if problems["tree"]:
            return sc
        if getattr(args, "measure", None):
            sc.measure = serialize.state_from_json(
                sc.tree, _read_json(args.measure)
            )
            problems["measure"] = sc.measure.validate()
            if problems["measure"]:
                return sc
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

    def valid(self) -> "Scenario":
        """This scenario, unless a document has problems: the first one
        in load order is refused with all of its problems."""
        for doc, problems in self.problems.items():
            if problems:
                raise serialize.SchemaError(
                    f"invalid {doc}: " + "; ".join(problems)
                )
        return self


def _error_text(e) -> str:
    """An error's message, led by ``word move i:`` when a word's move
    raised it."""
    move = getattr(e, "move_index", None)
    return str(e) if move is None else f"word move {move}: {e}"


def _require_at_least_one(flag: str, n: int):
    if n < 1:
        raise serialize.SchemaError(f"invalid {flag} {n}: need at least 1")


def _flat_charge(c) -> dict:
    return {v: frac_str(x) for v, x in sorted(c.values.items())}


def cmd_validate(args) -> int:
    sc = Scenario.load(args)
    report = dict(sc.problems)
    if sc.charge is not None:
        admissible = validate_charge(sc.measure, sc.charge)
        report["charge"] = [] if admissible else ["charge not admissible"]
    if sc.word is not None:
        try:
            apply_word(sc.word)
            report["word"] = []
        except EndflowError as e:
            report["word"] = [_error_text(e)]
    report["valid"] = not any(report.values())
    _emit(report, args.out)
    return EXIT_OK if report["valid"] else EXIT_VALIDATION


def cmd_charge(args) -> int:
    sc = Scenario.load(args).valid()
    _emit(_flat_charge(charge_of_word(sc.word)), args.out)
    return EXIT_OK


def cmd_section(args) -> int:
    sc = Scenario.load(args).valid()
    word = build_section(sc.tree, sc.measure, sc.charge)
    _emit(serialize.word_to_json(word), args.out)
    return EXIT_OK


def cmd_factorize(args) -> int:
    kernel, a = factorize(Scenario.load(args).valid().word)
    _emit(
        {
            "charge": _flat_charge(a),
            "kernel": serialize.word_to_json(kernel),
        },
        args.out,
    )
    return EXIT_OK


def cmd_retract(args) -> int:
    sc = Scenario.load(args).valid()
    try:
        tau = parse_frac(args.tau)
    except ValueError as e:
        raise serialize.SchemaError(f"--tau: {e}") from None
    _emit(serialize.word_to_json(retract(sc.word, tau)), args.out)
    return EXIT_OK


def cmd_push(args) -> int:
    sc = Scenario.load(args).valid()
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
    sc = Scenario.load(args).valid()
    h = realize_word(sc.star, sc.word)
    flux_charge = charge_of_word(sc.word)
    defs = [
        charge_from_definition(sc.star, h, cut)
        for cut in oracle_cuts(h, args.cuts)
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
    if args.suite is not None and args.suite not in SUITES:
        raise serialize.SchemaError(f"unknown suite {args.suite!r}")
    names = SUITES if args.suite is None else [args.suite]
    first, cases = 0, args.cases
    if args.case is not None:
        # one case of one suite, rerun alone
        if args.case < 0:
            raise serialize.SchemaError(
                f"invalid --case {args.case}: need at least 0"
            )
        if args.suite is None:
            raise serialize.SchemaError(
                f"invalid --case {args.case}: needs --suite"
            )
        first, cases = args.case, 1
    reports = [run_suite(name, args.seed, cases, first) for name in names]
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
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, text):
        return sub.add_parser(name, help=text, allow_abbrev=False)

    def common(p):
        p.add_argument("--tree", required=True)
        p.add_argument("--measure")
        p.add_argument("--out")

    p = command("validate", "validate input files")
    common(p)
    p.add_argument("--charge")
    p.add_argument("--word")
    p.add_argument("--morphism")
    p.add_argument("--star")
    p.set_defaults(fn=cmd_validate)

    p = command("charge", "end charge of a word")
    common(p)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_charge)

    p = command("section", "build a word with a given charge")
    common(p)
    p.add_argument("--charge", required=True)
    p.set_defaults(fn=cmd_section)

    p = command("factorize", "split a word into kernel and charge")
    common(p)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_factorize)

    p = command("retract", "slide a word toward the kernel")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--tau", required=True)
    p.set_defaults(fn=cmd_retract)

    p = command("push", "push data along a tree morphism")
    p.add_argument("--morphism", required=True)
    p.add_argument("--measure")
    p.add_argument("--charge")
    p.add_argument("--word")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_push)

    p = command("oracle", "compare flux and definition charges")
    p.add_argument("--star", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--cuts", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_oracle)

    p = command("verify", "run the randomized invariant suites")
    p.add_argument("--cases", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suite")
    p.add_argument("--case", type=int, help="rerun this case of --suite alone")
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
        print(f"validation error: {_error_text(e)}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
