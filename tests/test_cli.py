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
from endflow.gen import random_preserving_word, random_star
from endflow.measure import base_state
from endflow.morphism import identity_morphism
from endflow.transport import BalloonMove, MoveWord


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
        "empty_word": {"moves": []},
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
}


@pytest.mark.parametrize(
    "argv", INVALID_INPUTS.values(), ids=INVALID_INPUTS.keys()
)
def test_invalid_input_exits_2_without_traceback(invalid_files, argv):
    proc = _run_cli(*(a.format(**invalid_files) for a in argv))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    if argv[0] == "validate":
        assert json.loads(proc.stdout)["valid"] is False
    else:
        assert proc.stdout == ""
        assert proc.stderr.startswith("validation error: invalid ")


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
