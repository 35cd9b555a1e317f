"""The known-order generation test ``generates(gens, order)``: one element
answered by its order, Jordan's test for A_n and S_n, a proven "yes" from
the random Schreier-Sims lower bound, an exact "no" from the fallback
chain, and no draws from any caller's random generator."""

import hashlib
import math
import random

import pytest

from invgen import families, generation
from invgen import group as group_mod
from invgen.group import (PermGroup, _order_lower_bound, alternating_group,
                          generates, symmetric_group)
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
    # the even part of S7 wr S2: transitive, imprimitive, order 7!^2
    wreath = [parse_cycles("(1 2 3 4 5 6 7)", 14),
              parse_cycles("(1 2)(8 9)", 14),
              parse_cycles("(1 9 2 8)(3 10)(4 11)(5 12)(6 13)(7 14)", 14)]
    built = []

    def spy(gens):
        built.append(PermGroup(gens))
        return built[-1]
    monkeypatch.setattr(group_mod, "PermGroup", spy)
    assert not generates(a13, A14.order)        # intransitive: no chain
    assert built == []
    assert not generates(wreath, A14.order)
    assert [H.order for H in built] == [math.factorial(7) ** 2]
    assert generates(list(families.alternating_pair(14)), A14.order)
    assert len(built) == 1


def _projective(p: int, *maps) -> list:
    """The maps x -> (ax + b)/(cx + d), each given as (a, b, c, d), on the
    projective line over GF(p), p prime: points 0..p-1 as 1..p, and
    infinity as p + 1."""
    def image(x, a, b, c, d):
        if x == p:
            return a * pow(c, -1, p) % p if c else p
        den = (c * x + d) % p
        return (a * x + b) * pow(den, -1, p) % p if den else p
    return [Perm([image(x, *m) + 1 for x in range(p + 1)]) for m in maps]


_PSL2 = ((1, 1, 0, 1), (0, -1, 1, 0))       # x + 1 and -1/x


def _jordan_cases(get_group):
    """(name, gens, order): giants, and near-giants with a prime cycle at
    the edge of Jordan's window n/2 < p < n - 2 or just past it."""
    fact = math.factorial
    cases = []
    for n in range(8, 15):
        An, Sn = alternating_group(n), symmetric_group(n)
        pair = list(families.alternating_pair(n))
        cases += [(f"A{n} pair", pair, fact(n) // 2),
                  (f"A{n} pair in S{n}", pair, fact(n)),
                  (f"S{n}", Sn.generators, fact(n))]
        rng = random.Random(f"jordan {n}")
        for k in (2, 2, 3):
            cases += [(f"random A{n}", [An.random_element(rng)
                                        for _ in range(k)], fact(n) // 2),
                      (f"random S{n}", [Sn.random_element(rng)
                                        for _ in range(k)], fact(n))]
    m11 = [parse_cycles("(1 2 3 4 5 6 7 8 9 10 11)", 11),
           parse_cycles("(3 7 11 8)(4 10 5 6)", 11)]
    psl2_11 = _projective(11, *_PSL2)
    a13 = [Perm(g.images + (14,)) for g in alternating_group(13).generators]
    cases += [
        ("PGammaL(2,8), 7-cycles, p = n - 2",
         get_group("PGammaL(2,8)").generators, fact(9) // 2),
        ("M11, 11-cycles", m11, fact(11) // 2),
        ("M11 in S11", m11, fact(11)),
        ("PSL(2,11), 11-cycles, p = n - 1", psl2_11, fact(12) // 2),
        ("PSL(2,11) in S12", psl2_11, fact(12)),
        ("PGL(2,7), 7-cycles", _projective(7, *_PSL2, (3, 0, 0, 1)),
         fact(8)),
        ("PGL(2,13), 13-cycles", _projective(13, *_PSL2, (2, 0, 0, 1)),
         fact(14)),
        ("A13 on 14 points and an 11-cycle, intransitive",
         a13 + [parse_cycles("(1 2 3 4 5 6 7 8 9 10 11)", 14)],
         fact(14) // 2),
    ]
    return cases


def test_jordan_route_agrees_with_exact_order(get_group, monkeypatch):
    routes = []
    jordan = group_mod._jordan

    def spy(gens, order):
        routes.append(jordan(gens, order))
        return routes[-1]
    monkeypatch.setattr(group_mod, "_jordan", spy)
    answers = set()
    for name, gens, order in _jordan_cases(get_group):
        n = gens[0].degree
        # the caller's guarantee: gens lie in A_n for an n!/2 target
        assert order == math.factorial(n) or all(g.is_even() for g in gens)
        verdict = generates(gens, order)
        assert verdict == _exact(gens, order), name
        answers.add(verdict)
    assert answers == {True, False}
    assert set(routes) == {True, False, None}


def _no_chain(degree):
    raise AssertionError("a stabilizer chain was built")


def test_jordan_proof_builds_no_chain(monkeypatch):
    symmetric = {n: symmetric_group(n).generators for n in range(8, 15)}
    monkeypatch.setattr(group_mod, "StabChain", _no_chain)
    for n in (8, 9, 10, 12, 14):
        pair = list(families.alternating_pair(n))
        assert generates(pair, math.factorial(n) // 2)
    for n, gens in symmetric.items():
        assert generates(gens, math.factorial(n))


def test_mixed_degrees_still_raise():
    x8, y8 = families.alternating_pair(8)
    x9, y9 = families.alternating_pair(9)
    half = math.factorial(9) // 2
    for gens, order in (([x9, y8], half), ([x8, y9], half // 9),
                        ([x8, y9], half), ([x9, y9, x8], half)):
        with pytest.raises(ValueError):
            generates(gens, order)


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
