import subprocess
import sys
from pathlib import Path
from random import Random

from endflow.gen import random_morphism
from endflow.tree import validate_tree

SCRIPT = """
import hashlib, json
from random import Random
from endflow import serialize
from endflow.gen import random_preserving_word, random_tree
h = hashlib.sha256()
for seed in range(30):
    rng = Random(seed)
    tree = random_tree(rng, max_depth=4, max_nodes=24)
    word = random_preserving_word(rng, tree, transfers=3, shuffles=3)
    h.update(json.dumps(serialize.word_to_json(word)).encode())
print(h.hexdigest())
"""


def _words_digest(hash_seed: str) -> str:
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed},
        timeout=60,
        check=True,
    )
    return proc.stdout


def test_random_preserving_word_ignores_hash_seed():
    """The same Random seed draws the same words in every process."""
    assert _words_digest("1") == _words_digest("2") == _words_digest("3")


def test_random_morphism_draws_valid_trees():
    """Appendages that receive children and expanded Closed leaves are
    interior blocks, so both trees and the morphism validate."""
    for seed in range(200):
        pi = random_morphism(Random(seed))
        source, target = validate_tree(pi.source), validate_tree(pi.target)
        assert source == target == pi.validate() == [], seed
