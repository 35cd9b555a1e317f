"""The known-order generation test ``generates(gens, order)``: one element
answered by its order, a proven "yes" from the random Schreier-Sims lower
bound, an exact "no" from the fallback chain, and no draws from any
caller's random generator."""

import hashlib
import random

import pytest

from invgen import families, generation
from invgen import group as group_mod
from invgen.group import (PermGroup, _order_lower_bound, alternating_group,
                          generates)
from invgen.perm import Perm, parse_cycles
from invgen.structure import conjugacy_classes


def _exact(gens, order):
    return PermGroup(list(gens)).order == order


def test_agrees_with_exact_order_on_catalog_subsets(catalog):
    answers = set()
    for entry in catalog:
        G = families.instantiate(entry)
        rng = random.Random(f"generates {entry.name}")
        for _ in range(12):
            gens = [G.random_element(rng) for _ in range(rng.randint(1, 3))]
            verdict = generates(gens, G.order)
            assert verdict == _exact(gens, G.order), (entry.name, gens)
            answers.add(verdict)
    assert answers == {True, False}


def test_empty_identity_and_trivial():
    e = Perm.identity(4)
    assert generates([], 1)
    assert not generates([], 2)
    assert generates([e], 1)
    assert generates([e, e], 1)
    assert not generates([e, e], 24)
    trivial = PermGroup([Perm.identity(3)])
    assert trivial.order == 1
    assert generates(trivial.generators, trivial.order)
    assert generates([trivial.identity()], trivial.order)


def test_one_element_verdict_is_the_exact_order(catalog, get_group):
    answers = set()
    for entry in catalog:
        G = get_group(entry.name)
        for c in conjugacy_classes(G).classes:
            verdict = generates([c.rep], G.order)
            assert verdict == _exact([c.rep], G.order), (entry.name, c.label)
            answers.add(verdict)
    assert answers == {True, False}


def _no_random(*args):
    raise AssertionError("random.Random was seeded")


@pytest.mark.parametrize("name", ["C12", "C2^4", "AGL(1,7)"])
def test_sifted_generators_past_the_bound_seed_no_generator(
        name, get_group, monkeypatch):
    G = get_group(name)
    monkeypatch.setattr(group_mod.random, "Random", _no_random)
    assert _order_lower_bound(G.generators, G.order - 1) == G.order


def test_product_replacement_still_draws(monkeypatch):
    gens = list(families.alternating_pair(9))
    bound = alternating_group(9).order - 1
    want = _order_lower_bound(gens, bound)
    seeded, real = [], random.Random

    def spy(seed):
        seeded.append(seed)
        return real(seed)
    monkeypatch.setattr(group_mod.random, "Random", spy)
    assert _order_lower_bound(gens, bound) == want
    assert len(seeded) == 1


@pytest.mark.parametrize("n", range(9, 15))
def test_alternating_pair_generates(n, monkeypatch):
    An = alternating_group(n)
    x, y = families.alternating_pair(n)
    # a "yes" on A_n is proven by the lower bound, with no exact chain built
    monkeypatch.setattr(group_mod, "PermGroup", None)
    assert generates([x, y], An.order)
    assert generates([x, y, x], An.order)


def test_proper_subgroup_of_a14_uses_the_exact_fallback(monkeypatch):
    A14 = alternating_group(14)
    a13 = [Perm(g.images + (14,)) for g in alternating_group(13).generators]
    built = []

    def spy(gens):
        built.append(PermGroup(gens))
        return built[-1]
    monkeypatch.setattr(group_mod, "PermGroup", spy)
    assert not generates(a13, A14.order)
    assert [H.order for H in built] == [A14.order // 14]
    assert generates(list(families.alternating_pair(14)), A14.order)
    assert len(built) == 1


def test_helper_leaves_global_and_caller_streams_alone():
    A10 = alternating_group(10)
    x, y = families.alternating_pair(10)
    rng = random.Random(5)
    before = (random.getstate(), rng.getstate())
    for _ in range(3):
        assert generates([x, y], A10.order)
        assert not generates([x], A10.order)
    assert (random.getstate(), rng.getstate()) == before


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_refuter_verdicts_and_caller_stream_unchanged():
    """Verdicts, conjugators and the caller's generator state after the
    refuter on A9..A12, recorded with the refuter that built a full
    Schreier-Sims chain per trial."""
    rng = random.Random(1)
    out = []
    for n in range(9, 13):
        G = alternating_group(n)
        v = generation.invgen_sample_refuter(
            G, list(families.alternating_pair(n)), 30, rng)
        assert str(v) == "UNREFUTED(30 trials)"
        out.append(str(v))
        three_cycles = [parse_cycles("(1 2 3)", n), parse_cycles("(2 3 4)", n)]
        v = generation.invgen_sample_refuter(G, three_cycles, 5, rng)
        assert str(v) == "REFUTED(trial 1)"
        out.append((str(v), [g.images for g in v.failing_conjugators]))
    assert _digest(out) == ("02a4656ea2da5a1899bc0bd12c27b382"
                            "e1c9cae2a3b266b0e89b957c6a7ae2c7")
    assert _digest(rng.getstate()) == ("2b89b5a2cbe6a79979172c6d90b45e46"
                                       "92e1d4724976268edfd0359891ea76b7")
    assert rng.random() == 0.841987969806235
