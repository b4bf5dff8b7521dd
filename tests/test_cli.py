import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from endflow import serialize
from endflow.charge import EndCharge
from endflow.cli import main
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


def _run_cli(*argv):
    """Run the CLI as a user does, in a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "endflow.cli", *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        timeout=60,
    )


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
    overdraw = json.loads(json.dumps(word))
    overdraw["moves"].insert(
        1, {"balloon": {"edge": ["u", "l1"], "amount": "5"}}
    )
    morphism = serialize.morphism_to_json(identity_morphism(star_tree))
    bad_source = json.loads(json.dumps(morphism))
    for node in bad_source["source"]["nodes"]:
        if node["id"] == "u":
            node["weight"] = "-2"
    docs = {
        "morphism": morphism,
        "bad_source_morphism": bad_source,
        "measure_nonpositive": nonpositive,
        "measure_no_tails": {"blocks": base["blocks"], "tails": {}},
        "star": serialize.star_to_json(star),
        "bad_star": bad_star,
        "no_weight_star": no_weight_star,
        "empty_word": {"moves": []},
        "list_in_edge": list_in_edge,
        "object_in_support": object_in_support,
        "foreign_node": foreign_node,
        "overdraw": overdraw,
        "star_overdraw": star_overdraw,
    }
    paths = {k: v for k, v in files.items() if k != "dir"}
    for name, doc in docs.items():
        p = files["dir"] / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
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
    "oracle_star_missing_weight": [
        "oracle", "--star", "{no_weight_star}", "--word", "{empty_word}"
    ],
    "validate_star_missing_weight": [
        "validate", "--tree", "{tree}", "--star", "{no_weight_star}"
    ],
}

# faults that stop the command while its documents load (so even
# ``validate`` writes no report), or on a word's move, which the message
# names; every other case is reported as "validation error: invalid ..."
# (or by ``validate``'s report)
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
    "oracle_star_missing_weight": "validation error: star: block 'r0c0' has no weight",
    "validate_star_missing_weight": "validation error: star: block 'r0c0' has no weight",
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
    elif argv[0] == "validate":
        assert json.loads(proc.stdout)["valid"] is False
    else:
        assert proc.stdout == ""
        assert proc.stderr.startswith("validation error: invalid ")


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


def test_malformed_json_is_validation_error(tmp_path):
    p = tmp_path / "garbage.json"
    p.write_text("{not json")
    assert main(["validate", "--tree", str(p)]) == 2


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
    """Drop, duplicate or replace one nested key or item; return a note.

    A replacement is junk (drawn twice as often) or a node id taken from
    the same document, which can close a cycle, repeat a child or swap the
    ends of an edge."""
    slots = _slots(doc)
    if not slots:
        return "empty"
    box, key = rng.choice(slots)
    op = rng.choice(["drop", "dup", "junk", "junk", "own_id"])
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
    for k in range(1500):
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
