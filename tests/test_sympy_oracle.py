"""sympy as an independent oracle for the known-order generation test, on
groups past the reach of the brute-force oracles in oracles.py."""

import random

import pytest

from invgen import families
from invgen.group import alternating_group, generates
from invgen.maximal import _factorize, _sylow_indices
from invgen.structure import is_nilpotent
from invgen.table import (conjugacy_classes, group_table,
                          small_generating_indices)

from conftest import STRUCT_CAP

combinatorics = pytest.importorskip("sympy.combinatorics")


def _sympy_group(perms):
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation([i - 1 for i in g.images]) for g in perms])


def _sympy_order(gens) -> int:
    return _sympy_group(gens).order()


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


# -- structure of the catalog groups of order 168..20160 ---------------------

LARGE = ["PSL(2,7)", "A6", "PSL(2,8)", "PSL(2,11)", "S6", "PGammaL(2,8)",
         "A7", "S7", "A8"]


def test_large_list_is_the_catalog_range(catalog):
    assert sorted(LARGE) == sorted(e.name for e in catalog
                                   if 168 <= e.expected_order <= 20160)


@pytest.mark.parametrize("name", LARGE)
def test_structure_against_sympy(get_group, name):
    G = get_group(name)
    S = _sympy_group(G.generators)
    assert G.order == S.order()
    assert (sorted(c.size for c in conjugacy_classes(G).classes)
            == sorted(len(c) for c in S.conjugacy_classes()))
    # the normal closure of the generators' commutators, by GroupTable.closure
    assert (families._derived_subgroup_bits(G).bit_count()
            == S.derived_subgroup().order())
    tab = group_table(G)
    for p, e in _factorize(G.order).items():
        members = _sylow_indices(tab, p, p ** e)
        assert len(members) == S.sylow_subgroup(p).order() == p ** e
        gens = small_generating_indices(tab, members)
        assert tab.closure(gens) == sorted(members)
        assert _sympy_group([tab.elements[i] for i in gens]).order() == p ** e
    if G.order <= 5040:
        assert is_nilpotent(G, cap=STRUCT_CAP) == S.is_nilpotent
