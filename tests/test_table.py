"""GroupTable products and subgroup closure against independent oracles:
the brute-force closure of oracles.py for small subgroups, an exact
Schreier-Sims enumeration for larger ones, and Perm composition for mult."""

import gc
import random
import weakref

import pytest

from invgen import families, table
from invgen.group import PermGroup, _order_lower_bound
from invgen.maximal import _factorize, _sylow_indices
from invgen.perm import Perm
from invgen.structure import (chief_series, maximal_subgroups,
                              normal_closure_bits)
from invgen.table import (GroupTable, conjugacy_classes, group_table,
                          indices_of_bits, largest_proper_divisor, orbits)

from oracles import naive_closure

NAIVE_MAX = 200       # past this subgroup order, PermGroup(gens) is the oracle


def _fresh_table(catalog, name: str) -> GroupTable:
    # a new group object, so the table starts with no cached inverse or
    # conjugation maps
    entry = next(e for e in catalog if e.name == name)
    return GroupTable(families.instantiate(entry))


def _expected(tab: GroupTable, gens: list[int]) -> list[int]:
    perms = [tab.elements[i] for i in gens]
    H = PermGroup(perms)
    members = naive_closure(perms) if H.order <= NAIVE_MAX else H.elements()
    return sorted(tab.index[p.bytes] for p in members)


@pytest.mark.parametrize("name,rounds", [
    ("S4", 40), ("A5", 40), ("S5", 40), ("PSL(2,7)", 40), ("A7", 25)])
def test_closure_matches_oracle(catalog, name, rounds):
    tab = _fresh_table(catalog, name)
    rng = random.Random(f"closure {name}")
    pool = rng.sample(range(1, tab.n), 6)
    orders = set()
    for _ in range(rounds):
        gens = rng.sample(pool, rng.randint(1, 3))
        if rng.random() < 0.3:
            gens.append(tab.identity_index)
        members = tab.closure(gens)
        assert members == _expected(tab, gens), (name, gens)
        h = len(members)
        orders.add(h)
        assert tab.closure(gens, bound=h) == members
        assert tab.closure(gens, bound=h - 1) is None
    assert len(orders) > 1
    assert tab.n in orders or name == "A7"


def _check_bounds(tab: GroupTable, gens: list[int]) -> None:
    # None exactly when the subgroup is larger than the bound, else the
    # naive oracle's members
    want = sorted(tab.index[p.bytes]
                  for p in naive_closure([tab.elements[i] for i in gens]))
    h = len(want)
    for bound in (h - 1, h, largest_proper_divisor(tab.n), tab.n - 1, None):
        got = tab.closure(gens, bound=bound)
        if bound is not None and h > bound:
            assert got is None, (gens, bound)
        else:
            assert got == want, (gens, bound)


@pytest.mark.parametrize("name", [e.name for e in families.load_catalog()
                                  if e.expected_order <= 5040])
def test_bounded_closure_matches_the_naive_oracle(catalog, get_group, name):
    tab = group_table(get_group(name))
    rng = random.Random(f"bounded closure {name}")
    for _ in range(8):
        _check_bounds(tab, rng.sample(range(tab.n),
                                      rng.randint(1, min(4, tab.n))))


def test_bounded_closure_of_a8_matches_the_naive_oracle(get_group):
    # generators drawn from A8, from the A7 fixing 8 and from the A6 fixing
    # 7 and 8, so that the walks are long and the bounds fall on both sides
    tab = group_table(get_group("A8"))
    rng = random.Random("bounded closure A8")
    pools = [range(tab.n)]
    for moved in (7, 6):
        pools.append([i for i, p in enumerate(tab.elements)
                      if p.images[moved:] == tuple(range(moved + 1, 9))])
    for pool in pools:
        for _ in range(3):
            _check_bounds(tab, rng.sample(pool, rng.randint(1, 4)))


def test_the_chain_settles_the_normal_closures_of_a8(get_group, monkeypatch):
    # the normal closure of every class of prime order in simple A8 is A8:
    # its last bounded walk rents, and the chain's lower bound ends it
    G = get_group("A8")
    tab = group_table(G)
    answers = []

    def counted(gens, bound):
        low = _order_lower_bound(gens, bound)
        answers.append(low > bound)
        return low

    monkeypatch.setattr(table, "_order_lower_bound", counted)
    for c in conjugacy_classes(G).classes:
        if c.element_order in (2, 3, 5, 7):
            answers.clear()
            assert normal_closure_bits(tab, [c.rep_index]) == (1 << tab.n) - 1
            assert answers and answers[-1], c.label


def _one_bit_bits_of(indices) -> int:
    b = 0
    for i in indices:
        b |= 1 << i
    return b


def _one_bit_indices_of_bits(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


@pytest.mark.parametrize("name", ["C3", "A5", "PSL(2,11)", "S7"])
def test_bitset_conversions_match_the_one_bit_loops(get_group, name):
    tab = group_table(get_group(name))
    n = tab.n
    rng = random.Random(f"bits {name}")
    sets = [[], [0], [n - 1], list(range(n))]
    sets += [sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(20)]
    for members in sets:
        bits = _one_bit_bits_of(members)
        shuffled = rng.sample(members, len(members))
        assert tab.bits_of(members) == tab.bits_of(shuffled) == bits
        assert indices_of_bits(bits) == _one_bit_indices_of_bits(bits)
        assert indices_of_bits(bits) == members


@pytest.mark.parametrize("name", ["S4", "A5", "PSL(2,7)", "A7"])
def test_mult_matches_perm_products(catalog, name):
    tab = _fresh_table(catalog, name)
    rng = random.Random(f"mult {name}")
    g = rng.randrange(tab.n)
    for _ in range(300):
        i, j = rng.randrange(tab.n), rng.choice([g, rng.randrange(tab.n)])
        i, j = (i, j) if rng.random() < 0.5 else (j, i)
        assert tab.mult(i, j) == tab.index[
            (tab.elements[i] * tab.elements[j]).bytes]
        assert tab.mult(i, tab.inv(i)) == tab.identity_index


@pytest.mark.parametrize("name", ["S4", "A5", "PSL(2,7)"])
def test_elem_conj_map_matches_perm_conjugation(catalog, name):
    tab = _fresh_table(catalog, name)

    def conjugated(g):
        return [tab.index[(g.inverse() * x * g).bytes] for x in tab.elements]

    # the generators' maps on a fresh table, then again once other
    # elements' maps are cached
    gen_maps = [conjugated(g) for g in tab.generators]
    assert tab.conj_maps() == gen_maps, name
    rng = random.Random(f"conj {name}")
    for gi in [tab.identity_index] + rng.sample(range(1, tab.n), 5):
        assert tab.elem_conj_map(gi) == conjugated(tab.elements[gi]), (name, gi)
    assert tab.conj_maps() == gen_maps, name


@pytest.mark.parametrize("name", ["S4", "A5", "AGL(1,7)"])
def test_double_cosets_match_brute_force(catalog, name):
    # H a Sylow subgroup for each prime, then each maximal class's
    # representative: the double cosets partition G \ H, each is
    # {h * x * h'}, and each comes with its least index
    G = families.instantiate(next(e for e in catalog if e.name == name))
    tab = GroupTable(G)
    subgroups = [_sylow_indices(tab, p, p ** e)
                 for p, e in _factorize(tab.n).items()]
    subgroups += [m.member_indices() for m in maximal_subgroups(G)]
    for members in subgroups:
        hs = [tab.elements[h] for h in members]
        seen = set(members)
        for x, hxh in tab.double_cosets(members):
            want = {tab.index[(h * tab.elements[x] * k).bytes]
                    for h in hs for k in hs}
            assert hxh == want and x == min(hxh), (name, len(members), x)
            assert seen.isdisjoint(hxh)
            seen |= hxh
        assert seen == set(range(tab.n)), (name, len(members))


def test_trivial_group_of_degree_one():
    tab = GroupTable(PermGroup([Perm([1])]))
    assert tab.n == 1
    assert tab.closure([]) == [0]
    assert tab.closure([0, 0]) == [0]
    assert tab.closure([0], bound=1) == [0]
    assert tab.closure([0], bound=0) is None
    assert tab.mult(0, 0) == 0
    assert tab.elem_conj_map(0) == [0]


def test_whole_group_closure_has_no_bound_surprises(catalog):
    tab = _fresh_table(catalog, "S5")
    # (1 2) and (1 2 3 4 5) generate S5; the bound is checked, not the order
    gens = [tab.index[Perm(p).bytes]
            for p in ((2, 1, 3, 4, 5), (2, 3, 4, 5, 1))]
    assert tab.closure(gens) == list(range(120))
    assert tab.closure(gens, bound=120) == list(range(120))
    assert tab.closure(gens, bound=119) is None
    assert tab.closure(gens[:1], bound=2) == sorted([0, gens[0]])


def test_a_dropped_group_is_freed_without_the_cycle_collector():
    # the group caches its tables, classes and maximal classes; were they to
    # refer back to it strongly, only the cycle collector could free them
    G = families.catalog_group("A5", families.load_catalog())
    conjugacy_classes(G)
    maximal_subgroups(G)
    chief_series(G)
    alive = weakref.ref(G)
    gc.disable()
    try:
        del G
        assert alive() is None
    finally:
        gc.enable()


def test_orbits_meet_points_in_order_and_walk_breadth_first():
    # x -> x + 1 and x -> x + 3 on Z/8 is one orbit; each of its points
    # is listed once, every image of a point before the images of the next
    step = lambda x: [(x + 1) % 8, (x + 3) % 8]
    assert orbits([0], step) == [[0, 1, 3, 2, 4, 6, 5, 7]]
    # the involutions (0 1)(2 3) and (1 2) of 0..5: orbits {0..3}, {4}, {5}
    gens = [(1, 0, 3, 2, 4, 5), (0, 2, 1, 3, 4, 5)]
    images = lambda x: [g[x] for g in gens]
    assert orbits([5, 3, 0, 4, 1], images) == [[5], [3, 2, 1, 0], [4]]
    assert orbits(range(6), images) == [[0, 1, 2, 3], [4], [5]]


def test_orbits_of_a_map_that_is_not_invertible_are_reachable_sets():
    # states s -> s & row, as in the absorbing chain of chebotarev._chain
    step = lambda s: [s & 0b110, s & 0b011]
    assert orbits([0b111], step) == [[0b111, 0b110, 0b011, 0b010]]
    # a later start keeps only what no earlier orbit holds
    assert orbits([0b110, 0b111], step) == [[0b110, 0b010],
                                            [0b111, 0b011]]
