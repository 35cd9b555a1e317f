"""Results must not depend on the process's hash seed.

A Perm hashes as its bytes string, and bytes hashes are randomized per
process (PYTHONHASHSEED), while the hashes of int tuples are not.  So two
processes with different seeds must print the same random chain lower
bounds, refuter verdicts and conjugators, and CLI analysis."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import math
import random

from invgen import families, generation
from invgen.cli import main
from invgen.group import _order_lower_bound, alternating_group
from invgen.perm import parse_cycles

for n in range(9, 13):
    pair = list(families.alternating_pair(n))
    for bound in (1, 10 ** 3, 10 ** 5, math.factorial(n) // 2 - 1):
        print(n, bound, _order_lower_bound(pair, bound))
rng = random.Random(1)
A9 = alternating_group(9)
v = generation.invgen_sample_refuter(
    A9, list(families.alternating_pair(9)), 30, rng)
print(v)
three_cycles = [parse_cycles("(1 2 3)", 9), parse_cycles("(2 3 4)", 9)]
v = generation.invgen_sample_refuter(A9, three_cycles, 5, rng)
print(v, [g.images for g in v.failing_conjugators])
print(rng.random())
main(["analyze", "S4"])
"""


def _run(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return done.stdout


def test_outputs_do_not_depend_on_the_hash_seed():
    first, second = _run("1"), _run("2")
    assert "REFUTED(trial 1)" in first and '"group": "S4"' in first
    assert first == second
