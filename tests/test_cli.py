import hashlib
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from endflow import serialize
from endflow.charge import EndCharge
from endflow.cli import main
from endflow.extmath import INF
from endflow.gen import (
    random_morphism,
    random_preserving_word,
    random_star,
    random_state,
    random_tree,
    random_valid_charge,
)
from endflow.measure import base_state
from endflow.morphism import identity_morphism
from endflow.raystar import RayStar
from endflow.transport import BalloonMove, MoveWord, Rearrange


@pytest.fixture
def files(tmp_path, star_tree):
    mu = base_state(star_tree)
    word = MoveWord(
        star_tree,
        mu,
        (
            BalloonMove(("r", "u"), Fraction(3)),
            BalloonMove(("u", "l1"), Fraction(3)),
            BalloonMove(("v", "l2"), Fraction(-3)),
            BalloonMove(("r", "v"), Fraction(-3)),
        ),
    )
    charge = EndCharge(star_tree, {"l1": Fraction(3), "l2": Fraction(-3)})
    paths = {}
    for name, doc in [
        ("tree", serialize.tree_to_json(star_tree)),
        ("word", serialize.word_to_json(word)),
        ("charge", serialize.charge_to_json(charge)),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def test_validate_ok(files, capsys):
    assert main(["validate", "--tree", files["tree"]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True


def test_validate_rejects_broken_tree(tmp_path, capsys):
    doc = {
        "root": "a",
        "nodes": [
            {"id": "a", "weight": "0", "children": ["e"]},
            {"id": "e", "children": [], "leaf": {"kind": "end", "tail": "inf"}},
        ],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", "--tree", str(p)]) == 2


def test_charge_command(files, capsys):
    assert main(["charge", "--tree", files["tree"], "--word", files["word"]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"l1": "3", "l2": "-3", "l3": "0"}


def test_section_command_round_trips(files, capsys, star_tree):
    out_path = str(files["dir"] / "section.json")
    code = main(
        [
            "section",
            "--tree",
            files["tree"],
            "--charge",
            files["charge"],
            "--out",
            out_path,
        ]
    )
    assert code == 0
    word_doc = json.loads(open(out_path).read())
    mu = base_state(star_tree)
    word = serialize.word_from_json(star_tree, mu, word_doc)
    from endflow.transport import charge_of_word

    assert charge_of_word(word).values == {"l1": 3, "l2": -3, "l3": 0}


def test_section_zero_charge_gives_empty_word(files, tmp_path, capsys):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"values": {}}))
    assert main(["section", "--tree", files["tree"], "--charge", str(zero)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"moves": []}


def test_section_rejects_bad_charge(files, tmp_path, capsys):
    bad = tmp_path / "bad_charge.json"
    bad.write_text(json.dumps({"values": {"l1": "1"}}))
    assert main(["section", "--tree", files["tree"], "--charge", str(bad)]) == 2


def _run_cli(*argv, hash_seed=None):
    """Run the CLI as a user does, in a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {"PYTHONPATH": str(src)}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, "-m", "endflow.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_validate_output_ignores_hash_seed(tmp_path):
    """Unreachable nodes are listed in the same order in every process."""
    nodes = [
        {"id": "a", "weight": "1", "children": ["e"]},
        {"id": "e", "children": [], "leaf": {"kind": "end", "tail": "inf"}},
    ] + [{"id": v, "weight": "1", "children": []} for v in ("n2", "n3", "n4")]
    p = tmp_path / "unreachable.json"
    p.write_text(json.dumps({"root": "a", "nodes": nodes}))
    runs = [_run_cli("validate", "--tree", str(p), hash_seed=s) for s in "01"]
    assert [r.returncode for r in runs] == [2, 2]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stderr == runs[1].stderr
    assert json.loads(runs[0].stdout)["tree"] == [
        f"node {v!r} unreachable from root" for v in ("n2", "n3", "n4")
    ]


@pytest.mark.parametrize("doc", [[1, 2], "l1", 3, None])
def test_section_rejects_charge_that_is_not_an_object(files, tmp_path, doc):
    bad = tmp_path / "bad_charge.json"
    bad.write_text(json.dumps(doc))
    proc = _run_cli("section", "--tree", files["tree"], "--charge", str(bad))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("validation error: charge:")
    assert proc.stdout == ""


@pytest.fixture
def invalid_files(files, star_tree):
    """Documents that load as JSON but fail validation, and a valid star
    for the cases whose fault is an argument."""
    base = serialize.state_to_json(base_state(star_tree))
    nonpositive = dict(base, blocks=dict(base["blocks"], u="-2"))
    star = random_star(Random(81))
    bad_star = serialize.star_to_json(star)
    for node in bad_star["nodes"]:
        if node["id"] == star.cell_id(0, 0):
            node["weight"] = "-1"
    no_weight_star = serialize.star_to_json(star)
    for node in no_weight_star["nodes"]:
        if node["id"] == star.cell_id(0, 0):
            del node["weight"]
    word = serialize.word_to_json(
        MoveWord(star_tree, base_state(star_tree), (
            BalloonMove(("r", "u"), Fraction(1)),
            Rearrange(frozenset({"r", "u"}), {"r": Fraction(3), "u": Fraction(3)}),
        ))
    )
    list_in_edge = json.loads(json.dumps(word))
    list_in_edge["moves"][0]["balloon"]["edge"][1] = ["u"]
    object_in_support = json.loads(json.dumps(word))
    object_in_support["moves"][1]["rearrange"]["support"][0] = {"id": "r"}
    foreign_node = json.loads(json.dumps(word))
    foreign_node["moves"][0]["balloon"]["edge"] = ["r", "zz"]
    ray_tree = star.to_tree()
    # move 0 leaves the center at 1, move 1 takes 2 from it
    star_overdraw = serialize.word_to_json(
        MoveWord(ray_tree, base_state(ray_tree), (
            BalloonMove(("c", "r0c0"), Fraction(1, 2)),
            BalloonMove(("c", "r1c0"), Fraction(2)),
        ))
    )
    # move 0 sends half a unit into an end, and nothing brings it back
    star_unbalanced = serialize.word_to_json(
        MoveWord(ray_tree, base_state(ray_tree), (
            BalloonMove(("c", "r0c0"), Fraction(1, 2)),
        ))
    )
    # node 'u' listed twice, with different weights
    repeated_id = serialize.tree_to_json(star_tree)
    [u_entry] = [n for n in repeated_id["nodes"] if n["id"] == "u"]
    repeated_id["nodes"].append(dict(u_entry, weight="5"))
    # node 'u' listed twice among the root's children
    repeated_child = serialize.tree_to_json(star_tree)
    [r_entry] = [n for n in repeated_child["nodes"] if n["id"] == "r"]
    r_entry["children"].insert(0, "u")
    # a tree with two problems: a zero weight and an unreachable block
    two_problems = serialize.tree_to_json(star_tree)
    [v_entry] = [n for n in two_problems["nodes"] if n["id"] == "v"]
    v_entry["weight"] = "0"
    two_problems["nodes"].append({"id": "z", "weight": "1", "children": []})
    # End leaf 'l1' states a mass no reader takes
    stated_mass = serialize.tree_to_json(star_tree)
    [l1_entry] = [n for n in stated_mass["nodes"] if n["id"] == "l1"]
    l1_entry["weight"] = "7"
    overdraw = json.loads(json.dumps(word))
    overdraw["moves"].insert(
        1, {"balloon": {"edge": ["u", "l1"], "amount": "5"}}
    )
    # a one-cell star, so a depth read as true == 1 would load
    bool_depth_star = serialize.star_to_json(
        RayStar(Fraction(2), ((Fraction(1),), (Fraction(1),)), (INF, INF))
    )
    bool_depth_star["star"]["depth"] = True
    # a star of two rays of three cells, once with a stray block and once
    # with ray 0 running into ray 1's end, which leaves r0e unreached
    end_shared_star = serialize.star_to_json(
        RayStar(
            Fraction(2),
            ((Fraction(1), Fraction(2), Fraction(3)),) * 2,
            (INF, Fraction(3)),
        )
    )
    stray_node_star = json.loads(json.dumps(end_shared_star))
    stray_node_star["nodes"].append({"id": "z", "children": [], "weight": "1"})
    [r0c2] = [n for n in end_shared_star["nodes"] if n["id"] == "r0c2"]
    r0c2["children"] = ["r1e"]
    morphism = serialize.morphism_to_json(identity_morphism(star_tree))
    bad_source = json.loads(json.dumps(morphism))
    for node in bad_source["source"]["nodes"]:
        if node["id"] == "u":
            node["weight"] = "-2"
    bad_target = json.loads(json.dumps(morphism))
    for node in bad_target["target"]["nodes"]:
        if node["id"] == "u":
            node["weight"] = "-5"
    # documents stating keys no loader reads
    two_kinds = json.loads(json.dumps(word))
    two_kinds["moves"][0]["rearrange"] = two_kinds["moves"][1]["rearrange"]
    extra_balloon_key = json.loads(json.dumps(word))
    extra_balloon_key["moves"][0]["balloon"]["bogus"] = 1
    extra_rearrange_key = json.loads(json.dumps(word))
    extra_rearrange_key["moves"][1]["rearrange"]["bogus"] = 1
    star_doc = serialize.star_to_json(star)
    extra_header_key = dict(star_doc, star=dict(star_doc["star"], bogus=1))
    docs = {
        "morphism": morphism,
        "bad_source_morphism": bad_source,
        "bad_target_morphism": bad_target,
        "two_kinds_word": two_kinds,
        "extra_balloon_key_word": extra_balloon_key,
        "extra_rearrange_key_word": extra_rearrange_key,
        "extra_key_word": dict(word, extra=3),
        "extra_key_charge": {"values": {"l1": "1", "l2": "-1"}, "extra": 3},
        "extra_header_key_star": extra_header_key,
        "extra_key_star": dict(star_doc, extra=2),
        "extra_key_measure": dict(base, zz=1),
        "extra_key_morphism": dict(morphism, zz=1),
        "extra_key_tree": dict(serialize.tree_to_json(star_tree), extra=2),
        "measure_nonpositive": nonpositive,
        "measure_no_tails": {"blocks": base["blocks"], "tails": {}},
        "star": star_doc,
        "bool_depth_star": bool_depth_star,
        "bad_star": bad_star,
        "no_weight_star": no_weight_star,
        "end_shared_star": end_shared_star,
        "stray_node_star": stray_node_star,
        "empty_word": {"moves": []},
        "list_in_edge": list_in_edge,
        "object_in_support": object_in_support,
        "foreign_node": foreign_node,
        "overdraw": overdraw,
        "star_overdraw": star_overdraw,
        "star_unbalanced": star_unbalanced,
        "repeated_id_tree": repeated_id,
        "repeated_child_tree": repeated_child,
        "two_problems_tree": two_problems,
        "stated_mass_tree": stated_mass,
    }
    paths = {k: v for k, v in files.items() if k != "dir"}
    for name, doc in docs.items():
        p = files["dir"] / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    # a dict cannot hold a repeated key, so this one is written as text
    p = files["dir"] / "repeated_key_charge.json"
    p.write_text('{"values": {"l1": "3", "l1": "0", "l3": "0"}}')
    paths["repeated_key_charge"] = str(p)
    return paths


INVALID_INPUTS = {
    "push_nonpositive_block": [
        "push", "--morphism", "{morphism}", "--measure", "{measure_nonpositive}"
    ],
    "push_missing_tails": [
        "push", "--morphism", "{morphism}", "--measure", "{measure_no_tails}"
    ],
    "push_nonpositive_source_weight": [
        "push", "--morphism", "{bad_source_morphism}"
    ],
    "oracle_negative_cell": [
        "oracle", "--star", "{bad_star}", "--word", "{empty_word}"
    ],
    "oracle_zero_cuts": [
        "oracle", "--star", "{star}", "--word", "{empty_word}", "--cuts", "0"
    ],
    "oracle_negative_cuts": [
        "oracle", "--star", "{star}", "--word", "{empty_word}", "--cuts", "-1"
    ],
    "verify_zero_cases": ["verify", "--cases", "0"],
    "verify_negative_cases": ["verify", "--cases", "-3"],
    "verify_suite_negative_cases": [
        "verify", "--suite", "homomorphism", "--cases", "-3"
    ],
    "verify_empty_suite": ["verify", "--suite", ""],
    "verify_negative_case": [
        "verify", "--suite", "homomorphism", "--case", "-1"
    ],
    "verify_case_without_suite": ["verify", "--case", "2"],
    "validate_missing_tails_with_charge": [
        "validate", "--tree", "{tree}", "--measure", "{measure_no_tails}",
        "--charge", "{charge}",
    ],
    "validate_negative_star_cell": [
        "validate", "--tree", "{tree}", "--star", "{bad_star}"
    ],
    "validate_nonpositive_source_weight": [
        "validate", "--tree", "{tree}", "--morphism", "{bad_source_morphism}"
    ],
    "push_nonpositive_target_weight": [
        "push", "--morphism", "{bad_target_morphism}"
    ],
    "validate_nonpositive_target_weight": [
        "validate", "--tree", "{tree}", "--morphism", "{bad_target_morphism}"
    ],
    "charge_move_of_two_kinds": [
        "charge", "--tree", "{tree}", "--word", "{two_kinds_word}"
    ],
    "charge_extra_balloon_key": [
        "charge", "--tree", "{tree}", "--word", "{extra_balloon_key_word}"
    ],
    "factorize_extra_rearrange_key": [
        "factorize", "--tree", "{tree}", "--word", "{extra_rearrange_key_word}"
    ],
    "charge_extra_word_key": [
        "charge", "--tree", "{tree}", "--word", "{extra_key_word}"
    ],
    "section_extra_charge_key": [
        "section", "--tree", "{tree}", "--charge", "{extra_key_charge}"
    ],
    "charge_list_in_edge": [
        "charge", "--tree", "{tree}", "--word", "{list_in_edge}"
    ],
    "factorize_object_in_support": [
        "factorize", "--tree", "{tree}", "--word", "{object_in_support}"
    ],
    "push_foreign_node": [
        "push", "--morphism", "{morphism}", "--word", "{foreign_node}"
    ],
    "charge_overdrawn_block": ["charge", "--tree", "{tree}", "--word", "{overdraw}"],
    "oracle_overdrawn_center": [
        "oracle", "--star", "{star}", "--word", "{star_overdraw}"
    ],
    "oracle_unbalanced_word": [
        "oracle", "--star", "{star}", "--word", "{star_unbalanced}"
    ],
    "validate_repeated_node_id": ["validate", "--tree", "{repeated_id_tree}"],
    "validate_end_leaf_weight": ["validate", "--tree", "{stated_mass_tree}"],
    "validate_repeated_charge_key": [
        "validate", "--tree", "{tree}", "--charge", "{repeated_key_charge}"
    ],
    "oracle_star_missing_weight": [
        "oracle", "--star", "{no_weight_star}", "--word", "{empty_word}"
    ],
    "oracle_bool_depth": [
        "oracle", "--star", "{bool_depth_star}", "--word", "{empty_word}"
    ],
    "validate_star_missing_weight": [
        "validate", "--tree", "{tree}", "--star", "{no_weight_star}"
    ],
    "oracle_star_end_shared": [
        "oracle", "--star", "{end_shared_star}", "--word", "{empty_word}"
    ],
    "validate_star_end_shared": [
        "validate", "--tree", "{tree}", "--star", "{end_shared_star}"
    ],
    "oracle_star_stray_node": [
        "oracle", "--star", "{stray_node_star}", "--word", "{empty_word}"
    ],
    "validate_star_stray_node": [
        "validate", "--tree", "{tree}", "--star", "{stray_node_star}"
    ],
    "oracle_star_extra_header_key": [
        "oracle", "--star", "{extra_header_key_star}", "--word", "{empty_word}"
    ],
    "validate_star_extra_key": [
        "validate", "--tree", "{tree}", "--star", "{extra_key_star}"
    ],
    "validate_extra_measure_key": [
        "validate", "--tree", "{tree}", "--measure", "{extra_key_measure}"
    ],
    "push_extra_morphism_key": ["push", "--morphism", "{extra_key_morphism}"],
    "validate_extra_tree_key": ["validate", "--tree", "{extra_key_tree}"],
    "section_repeated_child": [
        "section", "--tree", "{repeated_child_tree}", "--charge", "{charge}"
    ],
    "validate_overdrawn_block": [
        "validate", "--tree", "{tree}", "--word", "{overdraw}"
    ],
    "verify_abbreviated_seed": ["verify", "--see", "1"],
    "unknown_option_before_command": ["--bogus", "verify"],
    "unknown_option_after_command": ["verify", "--bogus"],
    "oracle_abbreviated_cuts": [
        "oracle", "--star", "{star}", "--word", "{empty_word}", "--cut", "2"
    ],
}

END_SHARED = (
    "validation error: star: node 'r0c2' has children ('r1e',); "
    "the canonical tree has ('r0e',)"
)
STRAY_NODE = (
    "validation error: star: node 'z' has weight 1; "
    "the canonical tree has none"
)

# faults that stop the command while its documents load (so even
# ``validate`` writes no report), on a word's move, which the message
# names, or on an unknown verify suite; every other case is reported as
# "validation error: invalid ..." (or by ``validate``'s report)
LOAD_FAULTS = {
    "charge_list_in_edge": "validation error: word move 0: edge needs two node ids",
    "factorize_object_in_support": "validation error: word move 1: support needs node ids",
    "push_foreign_node": "validation error: word move 0: no edge ('r', 'zz') in the tree",
    "charge_overdrawn_block": (
        "validation error: word move 1: block 'u' would drop to -2 "
        "moving 5 across ('u', 'l1')"
    ),
    "oracle_overdrawn_center": (
        "validation error: word move 1: block 'c' would drop to -1 "
        "moving 2 across ('c', 'r1c0')"
    ),
    "oracle_unbalanced_word": (
        "validation error: word does not preserve its base measure; "
        "charge undefined"
    ),
    "validate_repeated_node_id": "validation error: tree node 'u': repeated id",
    "validate_end_leaf_weight": (
        "validation error: tree node 'l1': unexpected key 'weight' "
        "on an End leaf"
    ),
    "validate_repeated_charge_key": "validation error: repeated JSON key 'l1'",
    "verify_empty_suite": "validation error: unknown suite ''",
    "push_nonpositive_target_weight": (
        "validation error: invalid morphism: target tree: "
        "non-positive weight at 'u'"
    ),
    "charge_move_of_two_kinds": (
        "validation error: word move 0: unexpected key 'rearrange' "
        "in a balloon move"
    ),
    "charge_extra_balloon_key": (
        "validation error: word move 0: unexpected key 'bogus' in its balloon"
    ),
    "factorize_extra_rearrange_key": (
        "validation error: word move 1: unexpected key 'bogus' in its rearrange"
    ),
    "charge_extra_word_key": "validation error: word: unexpected key 'extra'",
    "section_extra_charge_key": (
        "validation error: charge: unexpected key 'extra'"
    ),
    "oracle_star_missing_weight": "validation error: star: block 'r0c0' has no weight",
    "oracle_bool_depth": "validation error: star header: key 'depth' has the wrong type",
    "validate_star_missing_weight": "validation error: star: block 'r0c0' has no weight",
    "oracle_star_end_shared": END_SHARED,
    "validate_star_end_shared": END_SHARED,
    "oracle_star_stray_node": STRAY_NODE,
    "validate_star_stray_node": STRAY_NODE,
    "oracle_star_extra_header_key": (
        "validation error: star header: unexpected key 'bogus'"
    ),
    "validate_star_extra_key": "validation error: star: unexpected key 'extra'",
    "validate_extra_measure_key": (
        "validation error: measure: unexpected key 'zz'"
    ),
    "push_extra_morphism_key": (
        "validation error: morphism: unexpected key 'zz'"
    ),
    "validate_extra_tree_key": "validation error: tree: unexpected key 'extra'",
    "push_nonpositive_source_weight": (
        "validation error: invalid morphism: source tree: "
        "non-positive weight at 'u'"
    ),
    "section_repeated_child": (
        "validation error: invalid tree: "
        "node 'u' is listed twice among the children of 'r'"
    ),
}

# what ``validate`` reports for a case, among the other keys of its report
REPORTS = {
    "validate_overdrawn_block": {
        "word": [
            "word move 1: block 'u' would drop to -2 moving 5 across ('u', 'l1')"
        ]
    },
}

# an abbreviated or unknown option is refused by the parser that read
# it, with that parser's usage text: the command's after its name, the
# top level's before it
USAGE_ERRORS = {
    "verify_abbreviated_seed": (
        "usage: endflow verify ",
        "endflow verify: error: unrecognized arguments: --see 1",
    ),
    "unknown_option_before_command": (
        "usage: endflow [-h]",
        "endflow: error: unrecognized arguments: --bogus",
    ),
    "unknown_option_after_command": (
        "usage: endflow verify ",
        "endflow verify: error: unrecognized arguments: --bogus",
    ),
    "oracle_abbreviated_cuts": (
        "usage: endflow oracle ",
        "endflow oracle: error: unrecognized arguments: --cut 2",
    ),
}


@pytest.mark.parametrize(
    "case, argv", INVALID_INPUTS.items(), ids=INVALID_INPUTS.keys()
)
def test_invalid_input_exits_2_without_traceback(invalid_files, case, argv):
    proc = _run_cli(*(a.format(**invalid_files) for a in argv))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    if case in LOAD_FAULTS:
        assert proc.stdout == ""
        assert proc.stderr == LOAD_FAULTS[case] + "\n"
    elif case in USAGE_ERRORS:
        assert proc.stdout == ""
        usage, error = USAGE_ERRORS[case]
        assert proc.stderr.startswith(usage)
        assert proc.stderr.endswith("\n" + error + "\n")
    elif argv[0] == "validate":
        report = json.loads(proc.stdout)
        assert report["valid"] is False
        assert report.items() >= REPORTS.get(case, {}).items()
    else:
        assert proc.stdout == ""
        assert proc.stderr.startswith("validation error: invalid ")


# an invalid document, what it is, and a command that reads it as that
SECTION = ["section", "--tree", "{tree}", "--charge", "{charge}"]
VERDICTS = {
    "repeated_child_tree": ("tree", SECTION),
    "two_problems_tree": ("tree", SECTION),
    "measure_nonpositive": ("measure", [
        "charge", "--tree", "{tree}", "--measure", "{measure}", "--word", "{word}"
    ]),
    "measure_no_tails": ("measure", SECTION + ["--measure", "{measure}"]),
    "bad_source_morphism": ("morphism", ["push", "--morphism", "{morphism}"]),
    "bad_target_morphism": ("morphism", ["push", "--morphism", "{morphism}"]),
    "bad_star": (
        "star", ["oracle", "--star", "{star}", "--word", "{empty_word}"]
    ),
}


@pytest.mark.parametrize(
    "name, doc, argv", [(k, *v) for k, v in VERDICTS.items()], ids=VERDICTS
)
def test_validate_and_the_commands_give_one_verdict(
    invalid_files, capsys, name, doc, argv
):
    """The problems a command refuses a document with are the ones
    ``validate`` lists under that document's key."""
    paths = dict(invalid_files, **{doc: invalid_files[name]})
    assert main([a.format(**paths) for a in argv]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    head = f"validation error: invalid {doc}: "
    assert printed.err.startswith(head) and printed.err.endswith("\n")
    tree = [] if doc == "tree" else ["--tree", invalid_files["tree"]]
    assert main(["validate", *tree, f"--{doc}", paths[doc]]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is False
    assert report[doc] == printed.err[len(head):-1].split("; ")


def test_validate_reports_each_morphism_tree(invalid_files, capsys):
    validate = ["validate", "--tree", invalid_files["tree"], "--morphism"]
    assert main(validate + [invalid_files["bad_target_morphism"]]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is False
    assert report["morphism"] == ["target tree: non-positive weight at 'u'"]
    assert main(validate + [invalid_files["bad_source_morphism"]]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["morphism"] == ["source tree: non-positive weight at 'u'"]


def test_nonpositive_star_mass_is_named(invalid_files, capsys):
    oracle = ["oracle", "--star", invalid_files["bad_star"]]
    assert main(oracle + ["--word", invalid_files["empty_word"]]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == (
        "validation error: invalid star: non-positive mass -1 at cell (0, 0)\n"
    )
    validate = ["validate", "--tree", invalid_files["tree"]]
    assert main(validate + ["--star", invalid_files["bad_star"]]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["star"] == ["non-positive mass -1 at cell (0, 0)"]
    assert report["valid"] is False


def test_realization_error_exits_3(tmp_path, capsys, monkeypatch):
    from endflow import cli
    from endflow.errors import RealizationError

    def broken(star, word):
        raise RealizationError("realized map is not a bijection")

    monkeypatch.setattr(cli, "realize_word", broken)
    star = random_star(Random(81))
    star_p = tmp_path / "star.json"
    word_p = tmp_path / "word.json"
    star_p.write_text(json.dumps(serialize.star_to_json(star)))
    word_p.write_text(json.dumps({"moves": []}))
    assert main(["oracle", "--star", str(star_p), "--word", str(word_p)]) == 3
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == (
        "internal realization violation: realized map is not a bijection\n"
    )


def test_factorize_command(files, capsys):
    code = main(
        ["factorize", "--tree", files["tree"], "--word", files["word"]]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["charge"] == {"l1": "3", "l2": "-3", "l3": "0"}
    assert "moves" in out["kernel"]


def test_retract_command(files, capsys, star_tree):
    code = main(
        [
            "retract",
            "--tree",
            files["tree"],
            "--word",
            files["word"],
            "--tau",
            "1/2",
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    mu = base_state(star_tree)
    word = serialize.word_from_json(star_tree, mu, out)
    from endflow.transport import charge_of_word

    assert charge_of_word(word).values == {
        "l1": Fraction(3, 2),
        "l2": Fraction(-3, 2),
        "l3": 0,
    }


@pytest.mark.parametrize("tau", ["0.5", "abc", "1/0", "2"])
def test_retract_rejects_bad_tau(files, tau):
    proc = _run_cli(
        "retract", "--tree", files["tree"], "--word", files["word"], "--tau", tau
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("validation error:")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_oracle_command(tmp_path, capsys):
    rng = Random(81)
    star = random_star(rng)
    tree = star.to_tree()
    word = random_preserving_word(rng, tree, base_state(tree))
    star_p = tmp_path / "star.json"
    word_p = tmp_path / "word.json"
    star_p.write_text(json.dumps(serialize.star_to_json(star)))
    word_p.write_text(json.dumps(serialize.word_to_json(word)))
    assert main(["oracle", "--star", str(star_p), "--word", str(word_p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["match"] is True
    assert out["cuts"] == 3
    assert out["word_charge"] == out["definition_charge"]


# sha256 of ``endflow oracle`` stdout on the five seeded stars below; a new
# value means the oracle's output changed
ORACLE_STDOUT_SHA256 = (
    "197cfedc34b403ec74c45cb296866435e3b4e28429ed861f70b1956cff0b103f"
)


def test_oracle_stdout_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    for seed in range(5):
        rng = Random(f"oracle-stdout:{seed}")
        star = random_star(rng, max_rays=5, max_depth=6)
        tree = star.to_tree()
        word = random_preserving_word(
            rng, tree, base_state(tree), transfers=6, shuffles=3
        )
        star_p = tmp_path / f"star{seed}.json"
        word_p = tmp_path / f"word{seed}.json"
        star_p.write_text(json.dumps(serialize.star_to_json(star)))
        word_p.write_text(json.dumps(serialize.word_to_json(word)))
        cmd = ["oracle", "--star", str(star_p), "--word", str(word_p)]
        assert main(cmd) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == ORACLE_STDOUT_SHA256


def test_oracle_reads_a_reordered_star_document_alike(tmp_path, capsys):
    # the same nodes listed the other way round give an equal tree
    rng = Random("oracle-reordered")
    star = random_star(rng, max_rays=5, max_depth=6)
    tree = star.to_tree()
    word = random_preserving_word(
        rng, tree, base_state(tree), transfers=6, shuffles=3
    )
    word_p = tmp_path / "word.json"
    word_p.write_text(json.dumps(serialize.word_to_json(word)))
    outs = []
    for reverse in (False, True):
        doc = serialize.star_to_json(star)
        if reverse:
            doc["nodes"].reverse()
        star_p = tmp_path / f"star{reverse}.json"
        star_p.write_text(json.dumps(doc))
        cmd = ["oracle", "--star", str(star_p), "--word", str(word_p)]
        assert main(cmd) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["match"] is True


def test_push_command(tmp_path, capsys, star_tree):
    from endflow.morphism import identity_morphism

    pi = identity_morphism(star_tree)
    morph_p = tmp_path / "morph.json"
    morph_p.write_text(json.dumps(serialize.morphism_to_json(pi)))
    charge_p = tmp_path / "charge.json"
    charge_p.write_text(json.dumps({"values": {"l1": "3", "l2": "-3"}}))
    code = main(
        ["push", "--morphism", str(morph_p), "--charge", str(charge_p)]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["charge"] == {"l1": "3", "l2": "-3", "l3": "0"}
    assert out["measure"]["blocks"]["r"] == "4"


def test_verify_command_deterministic(tmp_path, capsys):
    out1 = tmp_path / "v1.json"
    out2 = tmp_path / "v2.json"
    assert (
        main(["verify", "--cases", "4", "--seed", "9", "--out", str(out1)]) == 0
    )
    assert (
        main(["verify", "--cases", "4", "--seed", "9", "--out", str(out2)]) == 0
    )
    assert out1.read_bytes() == out2.read_bytes()
    printed = capsys.readouterr().out
    assert "PASS section_round_trip" in printed


def test_missing_file_is_io_error(tmp_path):
    assert main(["validate", "--tree", str(tmp_path / "nope.json")]) == 4


def test_malformed_json_is_validation_error(tmp_path, capsys):
    p = tmp_path / "garbage.json"
    p.write_text("{not json")
    assert main(["validate", "--tree", str(p)]) == 2
    assert capsys.readouterr().err == (
        "validation error: Expecting property name enclosed in double "
        "quotes: line 1 column 2 (char 1)\n"
    )


UNREADABLE_JSON = {
    "not_utf8": b'{"root": "\xff\xfe"}',
    "nested_past_the_recursion_limit": b"[" * 100_000 + b"]" * 100_000,
    "int_past_the_digit_limit": b'{"root": ' + b"1" * 5000 + b"}",
}


@pytest.mark.parametrize(
    "content", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON.keys()
)
def test_unreadable_json_exits_2_without_traceback(tmp_path, content):
    p = tmp_path / "tree.json"
    p.write_bytes(content)
    proc = _run_cli("validate", "--tree", str(p))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"validation error: unreadable JSON in {p}: ")
    assert proc.stdout == ""


def test_parser_is_built_once_and_reused(files, tmp_path, capsys, monkeypatch):
    from endflow import cli

    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    out = tmp_path / "out.json"
    tree, word, charge = files["tree"], files["word"], files["charge"]
    calls = [
        ["validate", "--tree", tree, "--word", word, "--charge", charge],
        ["section", "--tree", tree, "--charge", charge, "--out", str(out)],
        ["charge", "--tree", tree, "--word", word],
        ["factorize", "--tree", tree, "--word", word, "--out", str(out)],
        ["section", "--tree", tree],  # usage error: --charge is required
        ["charge", "--help"],
        ["verify", "--cases", "1", "--out", str(out)],
    ]

    def run(argv):
        out.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        printed = capsys.readouterr()
        written = out.read_bytes() if out.exists() else None
        return code, printed.out, printed.err, written

    first = [run(argv) for argv in calls]
    second = [run(argv) for argv in calls]
    assert first == second
    assert [r[0] for r in first] == [0, 0, 0, 0, 2, 0, 0]
    assert "the following arguments are required: --charge" in first[4][2]
    assert len(built) <= 1


def _fuzz_scenarios(count):
    """Valid documents for every command, on small seeded inputs."""
    out = []
    for seed in range(count):
        rng = Random(seed)
        tree = random_tree(rng, max_depth=3, max_nodes=16)
        mu = random_state(rng, tree)
        pi = random_morphism(rng, max_depth=2)
        src_mu = random_state(rng, pi.source)
        star = random_star(rng)
        star_tree = star.to_tree()
        out.append(
            {
                "tree": serialize.tree_to_json(tree),
                "measure": serialize.state_to_json(mu),
                "word": serialize.word_to_json(
                    random_preserving_word(rng, tree, mu)
                ),
                "charge": serialize.charge_to_json(
                    random_valid_charge(rng, tree, mu)
                ),
                "morphism": serialize.morphism_to_json(pi),
                "src_measure": serialize.state_to_json(src_mu),
                "src_word": serialize.word_to_json(
                    random_preserving_word(
                        rng, pi.source, src_mu, avoid=pi.collapsed_nodes
                    )
                ),
                "src_charge": serialize.charge_to_json(
                    random_valid_charge(rng, pi.source, src_mu)
                ),
                "star": serialize.star_to_json(star),
                "star_word": serialize.word_to_json(
                    random_preserving_word(rng, star_tree, base_state(star_tree))
                ),
            }
        )
    return out


# each command with the flags it reads and the document each names
FUZZ_COMMANDS = {
    "charge": [("--tree", "tree"), ("--measure", "measure"), ("--word", "word")],
    "section": [
        ("--tree", "tree"), ("--measure", "measure"), ("--charge", "charge")
    ],
    "factorize": [
        ("--tree", "tree"), ("--measure", "measure"), ("--word", "word")
    ],
    "retract": [
        ("--tree", "tree"), ("--measure", "measure"), ("--word", "word")
    ],
    "validate": [
        ("--tree", "tree"), ("--measure", "measure"), ("--charge", "charge"),
        ("--word", "word"), ("--morphism", "morphism"), ("--star", "star"),
    ],
    "oracle": [("--star", "star"), ("--word", "star_word")],
    "push": [
        ("--morphism", "morphism"), ("--measure", "src_measure"),
        ("--charge", "src_charge"), ("--word", "src_word"),
    ],
}
FUZZ_EXTRA = {"retract": ["--tau", "1/2"], "oracle": ["--cuts", "2"]}
FUZZ_JUNK = [None, [], {}, 1.5, -2.0, 0.0, "1/0", "inf", "zz", "1.5"]


def _slots(doc):
    """Every (container, key) pair inside a document, nested ones too."""
    out = []
    keys = doc.keys() if isinstance(doc, dict) else range(len(doc))
    for k in keys:
        out.append((doc, k))
        if isinstance(doc[k], (dict, list)):
            out += _slots(doc[k])
    return out


def _mutate(rng, doc):
    """Drop, duplicate or replace one nested key or item, add an unknown
    key to an object, or rewrite a rational unreduced; return a note.

    A replacement is junk (drawn twice as often) or a node id taken from
    the same document, which can close a cycle, repeat a child or swap the
    ends of an edge.  The unknown key may land in any object, the document
    itself included; an unreduced rational (``3/2`` as ``6/4``) keeps the
    document valid."""
    slots = _slots(doc)
    if not slots:
        return "empty"
    box, key = rng.choice(slots)
    op = rng.choice(
        ["drop", "dup", "junk", "junk", "own_id", "extra_key", "unreduced"]
    )
    if op == "extra_key":
        objects = [doc] + [b[k] for b, k in slots if isinstance(b[k], dict)]
        rng.choice(objects)["zz"] = "1"
        return op
    if op == "unreduced":
        rationals = [
            (b, k) for b, k in slots
            if isinstance(b[k], str) and re.fullmatch(r"-?\d+(/\d+)?", b[k])
        ]
        if not rationals:
            return "no rational"
        box, key = rng.choice(rationals)
        p, _, q = box[key].partition("/")
        box[key] = f"{2 * int(p)}/{2 * int(q or 1)}"
        return f"{op} {key!r}"
    if op == "drop":
        del box[key]
    elif op == "dup" and isinstance(box, list):
        box.insert(key, json.loads(json.dumps(box[key])))
    elif op == "dup":
        box[rng.choice(["zz", "1.5"])] = json.loads(json.dumps(box[key]))
    elif op == "own_id":
        box[key] = rng.choice(sorted(_node_ids(doc)) or ["zz"])
    else:
        box[key] = json.loads(json.dumps(rng.choice(FUZZ_JUNK)))
    return f"{op} {key!r}"


def _node_ids(doc):
    """The values under "id" keys and the keys of "map", anywhere in doc."""
    out = set()
    for box, key in _slots(doc):
        if key == "id" and isinstance(box[key], str):
            out.add(box[key])
        elif key == "map" and isinstance(box[key], dict):
            out.update(box[key])
    return out


def test_mutated_documents_end_in_documented_exit_codes(tmp_path, capsys):
    """Seeded mutations of valid documents: every in-process run ends in
    exit code 0, 2, 3 or 4, no exception escapes ``main``, and no message
    prints a Python repr of a number or a move."""
    rng = Random(2005)
    scenarios = _fuzz_scenarios(8)
    commands = sorted(FUZZ_COMMANDS)
    codes = {}
    # every loader refuses a value duplicated under a foreign key, so such
    # a "dup" ends in the loader, as does an "extra_key"
    for k in range(2500):
        command = commands[k % len(commands)]
        flags = FUZZ_COMMANDS[command]
        docs = json.loads(json.dumps(rng.choice(scenarios)))
        notes = []
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(flags)[1]
            notes.append(f"{name}: {_mutate(rng, docs[name])}")
        argv = [command, *FUZZ_EXTRA.get(command, [])]
        for flag, name in flags:
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(docs[name]))
            argv += [flag, str(p)]
        try:
            code = main(argv)
        except (Exception, SystemExit) as e:
            pytest.fail(f"case {k} {command} {notes}: {e!r}")
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (k, command, notes, code)
        for repr_head in ("Fraction(", "Move(", "Rearrange("):
            assert repr_head not in err, (k, command, notes, err)
        codes[code] = codes.get(code, 0) + 1
    # the mutations must reach past the loaders as well as into them
    assert codes.get(0, 0) > 50 and codes.get(2, 0) > 1000


def _readme_examples():
    """The documents of README's ``jsonc`` block, by name: each example is
    a paragraph that opens with a ``// name: ...`` line; an example
    written wholly as comments has no document."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("```jsonc\n", 1)[1].split("```", 1)[0]
    out = {}
    for para in block.strip().split("\n\n"):
        head, *body = para.splitlines()
        name = head.removeprefix("//").split()[0].rstrip(":")
        if body and not body[0].lstrip().startswith("//"):
            out[name] = json.loads("\n".join(body))
    return out


def test_readme_examples_are_one_valid_scenario(tmp_path):
    docs = _readme_examples()
    assert sorted(docs) == ["charge", "measure", "tree", "word"]
    argv = ["validate"]
    for name, doc in docs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        argv += [f"--{name}", str(p)]
    proc = _run_cli(*argv)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout) == {
        "tree": [], "measure": [], "word": [], "charge": [], "valid": True
    }
