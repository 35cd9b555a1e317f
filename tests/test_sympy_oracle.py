"""sympy as an independent oracle for the known-order generation test, on
groups past the reach of the brute-force oracles in oracles.py."""

import random

import pytest

from invgen import families
from invgen.group import alternating_group, generates

combinatorics = pytest.importorskip("sympy.combinatorics")


def _sympy_order(gens) -> int:
    perms = [combinatorics.Permutation([i - 1 for i in g.images])
             for g in gens]
    return combinatorics.PermutationGroup(perms).order()


def _check_sampled(G, seed, samples) -> set:
    rng = random.Random(seed)
    answers = set()
    for _ in range(samples):
        gens = [G.random_element(rng) for _ in range(rng.randint(1, 3))]
        verdict = generates(gens, G.order)
        assert verdict == (_sympy_order(gens) == G.order), (G, gens)
        answers.add(verdict)
    return answers


@pytest.mark.parametrize("n", range(9, 13))
def test_alternating_subsets_against_sympy(n):
    An = alternating_group(n)
    answers = _check_sampled(An, f"sympy A{n}", 12)
    x, y = families.alternating_pair(n)
    assert generates([x, y], An.order)
    assert _sympy_order([x, y]) == An.order
    # a point stabilizer: generated by A_n elements fixing n
    fixing = [g for g in (An.random_element(random.Random(k))
                          for k in range(60)) if g(n) == n][:3]
    assert fixing and not generates(fixing, An.order)
    assert _sympy_order(fixing) < An.order
    assert True in answers


def test_large_catalog_subsets_against_sympy(catalog):
    groups = [families.instantiate(e) for e in catalog
              if e.expected_order >= 168]
    assert len(groups) >= 8
    answers = set()
    for G in groups:
        answers |= _check_sampled(G, f"sympy {G.name}", 10)
    assert answers == {True, False}
