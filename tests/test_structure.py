import functools
import hashlib
import itertools
import math
import operator
import random
import tracemalloc
from fractions import Fraction

import pytest

from invgen import families, maximal, table
from invgen.group import (PermGroup, alternating_group,
                          group_from_generators, power_group, symmetric_group)
from invgen.maximal import (_factorize, _interval_maximals, _orbit_bits,
                            _p_maximal_subgroups, _sylow_indices,
                            _sylow_subgroup_classes, maximal_subgroups)
from invgen.perm import Perm, parse_cycles
from invgen.structure import (CapExceeded, chief_series, conjugacy_classes,
                              fuse_classes_under, group_table, is_nilpotent,
                              minimal_normal_subgroups, normalizes,
                              small_generating_indices, subgroup_lattice)
from invgen.table import (GroupTable, _ClassPool, _ClassRec, indices_of_bits,
                          largest_proper_divisor, subgroup_classes)

from oracles import (greedy_sylow_indices, naive_chief_series,
                     naive_conjugacy_classes, naive_fusion,
                     naive_subgroup_lattice)


def mk(spec, deg, name=""):
    return group_from_generators([parse_cycles(s, deg) for s in spec.split(";")],
                                 name=name)


# -- conjugacy classes ------------------------------------------------------

def test_a5_class_sizes():
    ct = conjugacy_classes(alternating_group(5))
    assert sorted(c.size for c in ct.classes) == [1, 12, 12, 15, 20]
    assert ct.classes[0].size == 1 and ct.classes[0].element_order == 1


def test_s4_class_sizes():
    ct = conjugacy_classes(symmetric_group(4))
    assert sorted(c.size for c in ct.classes) == [1, 3, 6, 6, 8]


def test_c5_all_singletons():
    ct = conjugacy_classes(mk("(1 2 3 4 5)", 5))
    assert [c.size for c in ct.classes] == [1] * 5


def test_class_sizes_divide_and_sum():
    for G in [alternating_group(5), symmetric_group(4), mk("(1 2 3 4 5 6)", 6)]:
        ct = conjugacy_classes(G)
        assert sum(c.size for c in ct.classes) == G.order
        assert all(G.order % c.size == 0 for c in ct.classes)


def test_classes_match_naive_oracle():
    for G in [symmetric_group(4), alternating_group(5), mk("(1 2 3);(4 5)", 5)]:
        ct = conjugacy_classes(G)
        naive = naive_conjugacy_classes(G.elements())
        got = sorted((c.size, c.rep.images) for c in ct.classes)
        want = sorted((len(c), min(p.images for p in c)) for c in naive)
        assert got == want


def test_canonical_order_and_labels():
    ct = conjugacy_classes(alternating_group(5))
    assert [c.label for c in ct.classes] == ["1", "5a", "5b", "2", "3"]
    sizes = [(c.size, c.element_order) for c in ct.classes]
    assert sizes == sorted(sizes)


# -- subgroup lattice -------------------------------------------------------

def test_lattice_counts():
    assert len(subgroup_lattice(mk("(1 2 3 4 5 6)", 6))) == 4
    assert len(subgroup_lattice(alternating_group(4))) == 10
    assert len(subgroup_lattice(symmetric_group(4))) == 30


def test_lattice_matches_naive_oracle():
    for G in [mk("(1 2 3 4 5 6)", 6), alternating_group(4),
              symmetric_group(4), mk("(1 2);(3 4)", 4)]:
        tab = group_table(G)
        records = subgroup_lattice(G)
        got = {frozenset(tab.elements[i] for i in r.member_indices())
               for r in records}
        assert got == naive_subgroup_lattice(G.elements())


@pytest.mark.parametrize("name, subgroups, classes", [
    # OEIS A005432 / A000638 (S_n) and A029725 / A029726 (A_n)
    ("S4", 30, 11), ("S5", 156, 19), ("S6", 1455, 56),
    ("A4", 10, 5), ("A5", 59, 9), ("A6", 501, 22), ("A7", 3786, 40),
])
def test_lattice_counts_match_oeis(name, subgroups, classes):
    make = {"S": symmetric_group, "A": alternating_group}[name[0]]
    G = make(int(name[1:]))
    tab = group_table(G)
    records = subgroup_lattice(G)
    assert len(records) == subgroups
    # one conjugation orbit per class, each walked once; together they are
    # exactly the records
    found = 0
    seen = set()
    for r in records:
        if r.bits not in seen:
            found += 1
            seen.update(_orbit_bits(tab, r.member_indices()))
    assert found == classes
    assert seen == {r.bits for r in records}


def test_lattice_cap():
    with pytest.raises(CapExceeded):
        subgroup_lattice(alternating_group(5), cap=50)


def test_lattice_records_are_subgroups():
    G = symmetric_group(4)
    tab = group_table(G)
    for rec in subgroup_lattice(G):
        assert rec.order == rec.bits.bit_count()
        assert rec.bits & 1          # contains the identity (index 0)
        assert tab.bits_of(tab.closure(rec.gen_indices)) == rec.bits


# -- maximal classes --------------------------------------------------------

def test_a5_maximal_classes():
    ms = maximal_subgroups(alternating_group(5))
    assert [m.order for m in ms] == [12, 10, 6]
    assert [m.class_size for m in ms] == [5, 6, 10]
    assert [m.v for m in ms] == [Fraction(3, 5), Fraction(2, 3), Fraction(3, 5)]


def test_s4_maximal_classes():
    ms = maximal_subgroups(symmetric_group(4))
    assert [m.order for m in ms] == [12, 8, 6]


def test_cp_maximal_is_trivial():
    for p in (2, 3, 5, 7):
        G = mk("(" + " ".join(map(str, range(1, p + 1))) + ")", p)
        ms = maximal_subgroups(G)
        assert len(ms) == 1 and ms[0].order == 1
        assert ms[0].v == Fraction(1, p)


def test_trivial_group_no_maximals():
    G = group_from_generators([Perm.identity(1)])
    assert maximal_subgroups(G) == []


def test_maximal_matches_lattice_route_small(catalog, get_group):
    # independent route: maximal elements of the full subgroup lattice, on
    # a few hand-built groups and every catalog group of order <= 720
    small = [get_group(e.name) for e in catalog if e.expected_order <= 720]
    assert len(small) == 34
    for G in [mk("(1 2 3 4 5 6)", 6), symmetric_group(4),
              alternating_group(5), mk("(1 2 3 4);(1 3)", 4),
              mk("(1 2 3 4 5);(2 3 5 4)", 5), *small]:
        records = subgroup_lattice(G)
        proper = [r for r in records if r.order < G.order]
        maximal_bits = [r.bits for r in proper
                        if not any(o.bits != r.bits and r.bits | o.bits == o.bits
                                   for o in proper)]
        ms = maximal_subgroups(G)
        assert sum(m.class_size for m in ms) == len(maximal_bits)
        rep_bits = {m.rep_bits for m in ms}
        assert rep_bits <= set(maximal_bits)


def test_sylow_subgroups_of_every_catalog_group(catalog, get_group):
    # the sympy oracle covers order >= 168; this covers the whole catalog
    for e in catalog:
        G = get_group(e.name)
        tab = group_table(G)
        for p, k in _factorize(G.order).items():
            members = _sylow_indices(tab, p, p ** k)
            assert len(members) == p ** k, (e.name, p)
            assert tab.closure(members) == members, (e.name, p)


def test_sylow_climb_matches_the_unfiltered_oracle(catalog, get_group):
    # the climb must pick the same Sylow subgroup, member for member, as
    # the plain greedy climb over the p-elements in index order
    for e in catalog:
        if e.expected_order > 20_160:
            continue
        G = get_group(e.name)
        tab = group_table(G)
        for p, k in _factorize(G.order).items():
            assert (_sylow_indices(tab, p, p ** k)
                    == greedy_sylow_indices(G.elements(), p, p ** k)), \
                (e.name, p)


def test_p_maximal_subgroups_match_the_lattice(get_group):
    # the Heisenberg group mod 3 has exponent 3: its Frattini subgroup is
    # its commutator subgroup, with no help from cubes
    heisenberg = mk("(1 2 3)(4 5 6)(7 8 9);(1 4 7)(2 5 8)(3 6 9);"
                    "(4 5 6)(7 9 8)", 9)
    assert heisenberg.order == 27
    # hyperplane descent against the maximal members of the Sylow
    # subgroup's own full lattice, mapped into G's table
    for name in ["D8", "Q8", "C2^4", "S4", "A6", "PGammaL(2,8)", heisenberg]:
        G = name if isinstance(name, PermGroup) else get_group(name)
        tab = group_table(G)
        for p, k in _factorize(G.order).items():
            members = _sylow_indices(tab, p, p ** k)
            P = group_from_generators([tab.elements[i] for i in members])
            to_g = [tab.index[x.bytes] for x in P.elements()]
            proper = [frozenset(to_g[i] for i in r.member_indices())
                      for r in subgroup_lattice(P) if r.order < P.order]
            want = {h for h in proper if not any(h < o for o in proper)}
            got = _p_maximal_subgroups(tab, p, frozenset(members))
            assert len(got) == len(want) and set(got) == want, (name, p)


def _lattice_sets(G) -> list[frozenset]:
    return [frozenset(r.member_indices()) for r in subgroup_lattice(G)]


def test_cut_down_intervals_match_the_lattice(catalog, get_group):
    # for every bound the chain can give p's interval, |G| over a product of
    # other primes, the members of [P, G] of order dividing it, maximal
    # among the proper ones, read off the full lattice
    for e in catalog:
        if e.expected_order > 168:
            continue
        G = get_group(e.name)
        tab = group_table(G)
        subgroups = _lattice_sets(G)
        fact = _factorize(G.order)
        for p, k in fact.items():
            P = frozenset(_sylow_indices(tab, p, p ** k))
            if len(P) == G.order:
                continue
            others = [q for q in fact if q != p]
            for r in range(len(others) + 1):
                for done in itertools.combinations(others, r):
                    divisor = G.order // math.prod(done)
                    cut = [h for h in subgroups if P <= h
                           and len(h) < G.order and divisor % len(h) == 0]
                    want = {h for h in cut if not any(h < o for o in cut)}
                    got = _interval_maximals(tab, sorted(P), divisor)
                    assert sorted(got, key=sorted) == sorted(
                        want, key=sorted), (e.name, p, divisor)


def test_sylow_subgroup_classes_match_the_lattice(catalog, get_group):
    # every G-class of proper subgroups of P, and each once, against the
    # p-subgroups of the full lattice fused under conjugation
    for e in catalog:
        if e.expected_order > 168:
            continue
        G = get_group(e.name)
        tab = group_table(G)
        for p, k in _factorize(G.order).items():
            P = frozenset(_sylow_indices(tab, p, p ** k))
            want = set()
            for h in _lattice_sets(G):
                if len(h) < len(P) and len(P) % len(h) == 0:
                    want.add(min(_orbit_bits(tab, h)))
            pool = _ClassPool(tab)
            got = [min(map(tab.bits_of, r.orbit))
                   for r in _sylow_subgroup_classes(tab, p, sorted(P), pool)]
            assert len(got) == len(set(got)) and set(got) == want, (e.name, p)


def test_class_pool_keeps_one_record_per_subgroup_class(catalog, get_group):
    # every member of the full lattice into one pool: one record per class,
    # whose orbit is that class under conjugation by every element of G
    for e in catalog:
        if e.expected_order > 168:
            continue
        G = get_group(e.name)
        tab = group_table(G)
        conj = [[tab.index[x.conjugate(g).bytes] for x in tab.elements]
                for g in tab.elements]
        lattice = _lattice_sets(G)
        pool = _ClassPool(tab)
        for h in lattice:
            pool.add(tuple(sorted(h)))
        want = {frozenset(frozenset(map(c.__getitem__, h)) for c in conj)
                for h in lattice}
        got = [frozenset(map(frozenset, r.orbit)) for r in pool.all]
        assert len(got) == len(want) and set(got) == want, e.name
        assert sum(len(r.orbit) for r in pool.all) == len(lattice), e.name


def test_sweep_finds_the_diagonals_of_a5_squared():
    # the maximal subgroups of T x T, T nonabelian simple, are M x T, T x M
    # (M maximal in T) and the diagonals {(t, t^a)}, one class per class of
    # Out(T); for T = A5 a diagonal has index 60, divisible by every prime
    # of |G|, so no Sylow interval holds one and only the sweep finds them
    G = power_group(alternating_group(5), 2)
    ms = maximal_subgroups(G)
    assert [(m.order, m.class_size) for m in ms] == [
        (720, 5), (720, 5), (600, 6), (600, 6), (360, 10), (360, 10),
        (60, 60), (60, 60)]
    tab = group_table(G)
    for m in ms[-2:]:                 # a diagonal meets each factor trivially
        projections = {tuple(tab.elements[i].images[:5])
                       for i in m.member_indices()}
        assert len(projections) == 60 and m.core_bits == 1


def _direct_product(*factors) -> PermGroup:
    # each factor's generators act on their own block of points
    degree = sum(f.degree for f in factors)
    gens, offset = [], 0
    for f in factors:
        for g in f.generators:
            images = list(range(1, degree + 1))
            images[offset:offset + f.degree] = [
                offset + g(pt) for pt in range(1, f.degree + 1)]
            gens.append(Perm(images))
        offset += f.degree
    return group_from_generators(gens)


FALLBACK_MAXIMALS = {
    # direct products where the last step's p-local argument stops, with the
    # (order, class size) of each maximal class, in canonical order
    "S4xS3": (lambda: (symmetric_group(4), symmetric_group(3)),
              [(72, 1), (72, 1), (72, 1), (48, 3), (48, 3), (36, 4)]),
    "C2xS4": (lambda: (mk("(1 2)", 2), symmetric_group(4)),
              [(24, 1), (24, 1), (24, 1), (16, 3), (12, 4)]),
    "A4^2": (lambda: (alternating_group(4),) * 2,
             [(48, 1), (48, 1), (48, 1), (48, 1), (36, 4), (36, 4)]),
    "S3^3": (lambda: (symmetric_group(3),) * 3,
             [(108, 1)] * 7 + [(72, 3)] * 3),
    "A5xS3": (lambda: (alternating_group(5), symmetric_group(3)),
              [(180, 1), (120, 3), (72, 5), (60, 6), (36, 10)]),
}


def _fallback_group(name) -> PermGroup:
    return _direct_product(*FALLBACK_MAXIMALS[name][0]())


@pytest.mark.parametrize("name", sorted(FALLBACK_MAXIMALS))
def test_direct_products_keep_their_maximal_classes(name):
    ms = maximal_subgroups(_fallback_group(name))
    assert [(m.order, m.class_size) for m in ms] == FALLBACK_MAXIMALS[name][1]


class _Walked(Exception):
    pass


def _no_walk(*args):
    raise _Walked


@pytest.mark.parametrize("name", ["A8", "S7", "PSL(2,7)"])
def test_p_local_step_needs_no_join(name, catalog, monkeypatch):
    # D = |G|/rad|G| has two primes and no small normal subgroup
    monkeypatch.setattr(maximal, "subgroup_classes", _no_walk)
    from conftest import STRUCT_CAP
    G = families.instantiate(next(e for e in catalog if e.name == name))
    ms = maximal_subgroups(G, cap=STRUCT_CAP)
    assert [(m.order, m.class_size) for m in ms] == ATLAS_MAXIMALS[name]


def _l3_3():
    # PSL(3,3) on the 13 points of PG(2,3), generated by the elementary
    # transvections; each point is the vector whose first nonzero entry is 1
    points = [v for v in itertools.product(range(3), repeat=3)
              if next(filter(None, v), 0) == 1]
    where = {v: i + 1 for i, v in enumerate(points)}

    def act(i, j, v):
        w = list(v)
        w[i] = (w[i] + w[j]) % 3
        lead = next(filter(None, w))
        return where[tuple(x * lead % 3 for x in w)]   # lead^-1 = lead mod 3

    return group_from_generators([
        Perm([act(i, j, v) for v in points])
        for i, j in itertools.permutations(range(3), 2)])


def test_p_local_step_finds_a_maximal_of_l3_3(monkeypatch):
    # S4 has index 234 = 2 * 3^2 * 13 in L3(3), divisible by every prime of
    # |G| = 5616, so no Sylow interval holds it: the p-local step finds it
    # as the normalizer of a 2-subgroup, certified, with no class walk
    monkeypatch.setattr(maximal, "subgroup_classes", _no_walk)
    certified = []
    certify = maximal._certify_maximal
    monkeypatch.setattr(maximal, "_certify_maximal", lambda tab, members: (
        certified.append(len(members)) or certify(tab, members)))
    G = _l3_3()
    assert G.order == 5616
    assert [(m.order, m.class_size) for m in maximal_subgroups(G)] == [
        (432, 13), (432, 13), (39, 144), (24, 234)]
    assert certified == [24]


@pytest.mark.parametrize("name", ["C2^4", "D8", "Q8"])
def test_p_group_maximals_skip_the_pool(name, catalog, monkeypatch):
    # Burnside's basis theorem gives every maximal of a p-group, each normal
    monkeypatch.setattr(maximal, "_ClassPool", None)
    monkeypatch.setattr(maximal, "subgroup_classes", None)
    G = families.instantiate(next(e for e in catalog if e.name == name))
    ms = maximal_subgroups(G)
    k = {"C2^4": 4, "D8": 2, "Q8": 2}[name]
    assert [(m.order, m.class_size) for m in ms] == (
        [(G.order // 2, 1)] * (2 ** k - 1))


@pytest.mark.parametrize("name", ["S4", "A5^2"])
def test_class_walk_runs_where_the_argument_stops(name, monkeypatch):
    # S4: V4 is normal of order D = 4; A5^2: D = 120 has three primes
    G = {"S4": lambda: symmetric_group(4),
         "A5^2": lambda: power_group(alternating_group(5), 2)}[name]()
    monkeypatch.setattr(maximal, "subgroup_classes", _no_walk)
    with pytest.raises(_Walked):
        maximal_subgroups(G)


def _brute_normalizer(tab, members) -> list[int]:
    # g normalizes H = <gens> exactly when it maps each generator into H:
    # then H^g, a subgroup of the same order, lies in H
    gens = [tab.elements[i] for i in small_generating_indices(
        tab, sorted(members))]
    return [i for i, g in enumerate(tab.elements)
            if all(tab.index[x.conjugate(g).bytes] in members for x in gens)]


def _brute_conjugates(tab, members, normalizer) -> set[tuple]:
    # H^g for one g in each coset N g of the normalizer N, since H^(ng) = H^g
    out, covered = set(), set()
    for g in range(tab.n):
        if g not in covered:
            covered.update(tab.mult(x, g) for x in normalizer)
            out.add(tuple(sorted(tab.index[tab.elements[h].conjugate(
                tab.elements[g]).bytes] for h in members)))
    return out


def _check_class_record(tab, members) -> list[int]:
    # the record's normalizer and orbit against brute force; returns the
    # normalizer
    rec = _ClassRec(tab, tuple(sorted(members)))
    norm, gens = rec.normalizer(tab)
    assert norm == _brute_normalizer(tab, members)
    assert tab.closure(gens) == norm
    assert rec.orbit[0] == rec.rep and len(set(rec.orbit)) == len(rec.orbit)
    assert set(rec.orbit) == _brute_conjugates(tab, rec.rep, norm)
    return norm


def test_normalizer_indices_match_brute_force(catalog, get_group):
    # seeded subgroups of one to three random elements, and the trivial
    # subgroup and the whole group
    for e in catalog:
        if e.expected_order > 720:
            continue
        G = get_group(e.name)
        tab = group_table(G)
        rng = random.Random(e.name)
        subgroups = [[tab.identity_index], list(range(tab.n))]
        for _ in range(6):
            subgroups.append(tab.closure(
                [rng.randrange(tab.n) for _ in range(rng.randint(1, 3))]))
        for h in map(frozenset, subgroups):
            _check_class_record(tab, h)


def test_normalizer_of_the_field_automorphism_group(get_group):
    # almost_simple_lower_example's sigma-cyclic subgroup: <sigma>, sigma of
    # order 3 outside the socle PSL(2,8) of PGammaL(2,8)
    G = get_group("PGammaL(2,8)")
    tab = group_table(G)
    socle_bits = families._derived_subgroup_bits(G)
    sigma = next(i for i in range(tab.n) if not (socle_bits >> i) & 1
                 and tab.elements[i].order() == 3)
    assert len(_check_class_record(tab, frozenset(tab.closure([sigma])))) == 18


def _classes_of_order_dividing(tab, divisor) -> list[list[int]]:
    # the least conjugate of each class of subgroups of order dividing the
    # divisor: a subgroup K > 1 is <H, x> for H maximal in K, and a conjugate
    # of K is such an extension of H's representative, so one-element
    # extensions of the representatives reach every class
    ct = conjugacy_classes(tab.group)
    fits = [x for x in range(tab.n)
            if divisor % ct.classes[ct.class_of[x]].element_order == 0]
    seen = {1 << tab.identity_index}
    reps = [[tab.identity_index]]
    for h in reps:
        gens = small_generating_indices(tab, h)
        for x in fits:
            k = tab.closure(gens + [x], bound=divisor)
            if k is not None and divisor % len(k) == 0 \
                    and tab.bits_of(k) not in seen:
                orbit = _orbit_bits(tab, k)
                seen.update(orbit)
                reps.append(indices_of_bits(min(orbit)))
    return reps


@pytest.mark.parametrize("name", ["S4", "C12", "S4xS3", "S3^3", "A5xS3"])
def test_subgroup_classes_match_one_element_extensions(name, get_group):
    # the walk against the helper above, which extends each representative
    # by every element, with no pool and no normalizer, at D = |G|/rad|G|
    G = (get_group(name) if name in ("S4", "C12")
         else _fallback_group(name))
    tab = group_table(G)
    divisor = G.order // math.prod(_factorize(G.order))
    got = [_least_conjugate(tab, rec.rep)
           for rec in subgroup_classes(tab, divisor)]
    assert len(got) == len(set(got))
    assert set(got) == {_least_conjugate(tab, h)
                        for h in _classes_of_order_dividing(tab, divisor)}


# sha256 of repr([rec.rep for rec in subgroup_classes(tab, |G|)]): the
# walk's order of classes and choice of representatives
CLASS_WALK_PINS = {
    "S4": "4fed5f3ea4713da8c4327ab0448af452b90837266e1d688ff30cee3655bc68be",
    "C12": "72d1140d1e11509fc4a6a03ce36f8cac721d6c08df2e8ee25547e6232ecd8c18",
    "S5": "95bd3d3d77e28b0e3851977659f2699e9f4405b542f17545b5fd444b5974c45b",
    "A6": "1792819b9c239a4a9879b074c62b556f24b73babe2f7c65c3e090b4de5eafca6",
    "S6": "b66a16c8fdc09e35770fb0d9ad6803a33db2d4ecc0f4123c0bebb9a5fa958740",
}


@pytest.mark.parametrize("name", sorted(CLASS_WALK_PINS))
def test_subgroup_classes_walk_order_is_pinned(name, get_group, monkeypatch):
    # and one small generating list per class, that of its representative
    calls = []
    monkeypatch.setattr(table, "small_generating_indices",
                        lambda tab, members: calls.append(members) or
                        small_generating_indices(tab, members))
    tab = group_table(get_group(name))
    reps = [rec.rep for rec in subgroup_classes(tab, tab.n)]
    assert hashlib.sha256(repr(reps).encode()).hexdigest() == \
        CLASS_WALK_PINS[name]
    assert calls == reps


def _is_maximal(tab, members) -> bool:
    # every one-element extension is the whole group, which is when the
    # closure bounded by |G|'s largest proper divisor gives None
    gens = small_generating_indices(tab, members)
    bound = largest_proper_divisor(tab.n)
    inside = set(members)
    return len(inside) < tab.n and all(
        tab.closure(gens + [x], bound=bound) is None
        for x in range(tab.n) if x not in inside)


def _least_conjugate(tab, members) -> int:
    return min(_orbit_bits(tab, members))


def test_p_local_candidates_match_the_lattice(catalog, get_group):
    # the maximal search's last step: on the catalog groups of order <= 720
    # where D = |G|/rad|G| has at most two primes and no nontrivial normal
    # subgroup has order dividing D, the maximal classes of order dividing D
    # are core-free, and they are exactly the maximal classes among the
    # normalizers N_G(P), P a p-subgroup, with |N_G(P)| dividing D
    checked = []
    for e in catalog:
        if e.expected_order > 720:
            continue
        G = get_group(e.name)
        tab = group_table(G)
        fact = _factorize(G.order)
        divisor = G.order // math.prod(fact)
        if len(fact) < 2 or len(_factorize(divisor)) > 2:
            continue
        small = _classes_of_order_dividing(tab, divisor)
        assert {_least_conjugate(tab, h) for h in small} == {
            _least_conjugate(tab, h) for h in _lattice_sets(G)
            if divisor % len(h) == 0}, e.name
        if any(len(h) > 1 and len(_orbit_bits(tab, h)) == 1 for h in small):
            continue
        checked.append(e.name)
        maximal = [h for h in small if _is_maximal(tab, h)]
        for h in maximal:
            core = functools.reduce(operator.and_, _orbit_bits(tab, h))
            assert core == 1 << tab.identity_index, e.name
        pool = _ClassPool(tab)
        normalizers = []
        for p in _factorize(divisor):
            sylow = _sylow_indices(tab, p, p ** fact[p])
            for rec in _sylow_subgroup_classes(tab, p, sylow, pool):
                norm = rec.normalizer(tab)[0]
                if divisor % len(norm) == 0 and len(norm) < G.order:
                    normalizers.append(norm)
        assert {_least_conjugate(tab, n) for n in normalizers
                if _is_maximal(tab, n)} == {
            _least_conjugate(tab, h) for h in maximal}, e.name
    assert checked == [
        "C6", "C10", "C14", "C15", "S3", "A4", "A5", "A6", "S5", "S6",
        "PSL(2,7)", "PSL(2,8)", "PSL(2,11)", "AGL(1,5)", "AGL(1,7)",
        "AGL(1,11)", "AGL(1,13)"]


def test_maximals_are_core_times_normalizers(catalog, get_group):
    # the argument behind the last step, on every catalog group of order
    # <= 168 and every maximal class of the lattice route: a maximal M that
    # is not normal and whose order has at most two primes is C * N_G(P),
    # C its core and P a p-subgroup
    for e in catalog:
        if e.expected_order > 168:
            continue
        G = get_group(e.name)
        tab = group_table(G)
        lattice = _lattice_sets(G)
        proper = [h for h in lattice if len(h) < G.order]
        p_subgroups = {_least_conjugate(tab, h): h for h in lattice
                       if len(_factorize(len(h))) == 1}
        normalizers = [
            _ClassRec(tab, tuple(indices_of_bits(b))).normalizer(tab)[0]
            for b in p_subgroups]
        for m in proper:
            orbit = _orbit_bits(tab, m)
            if (len(orbit) == 1 or len(_factorize(len(m))) > 2
                    or any(m < h for h in proper)):
                continue
            core = indices_of_bits(functools.reduce(operator.and_, orbit))
            assert any(tab.bits_of(tab.closure(core + n)) in orbit
                       for n in normalizers), (e.name, sorted(m))


def test_maximal_search_peak_memory_s7():
    # the search's own transient memory, past the table and the classes it
    # reads; storing every conjugate of every sweep class as a frozenset of
    # indices peaked at 9.3 MB here, sorted index tuples at 2.8 MB
    G = symmetric_group(7)
    group_table(G)
    conjugacy_classes(G)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert len(maximal_subgroups(G)) == 5
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 5_000_000, peak - start


def test_class_size_times_normalizer_is_order():
    G = alternating_group(5)
    for m in maximal_subgroups(G):
        assert G.order % m.class_size == 0


def test_core_is_normal_and_contained():
    for G in [symmetric_group(4), alternating_group(5)]:
        tab = group_table(G)
        for m in maximal_subgroups(G):
            assert m.core_bits | m.rep_bits == m.rep_bits
            from invgen.structure import (indices_of_bits,
                                          small_generating_indices)
            gens = small_generating_indices(tab, indices_of_bits(m.core_bits))
            assert all((m.core_bits >> c[g]) & 1
                       for c in tab.conj_maps() for g in gens)


def test_mtilde_equals_union_of_conjugates_small():
    # element-wise union of conjugates vs class-bitset route, order <= 600
    from invgen.families import catalog_group
    for G in [symmetric_group(4), alternating_group(5),
              mk("(1 2 3 4 5);(2 3 5 4)", 5), alternating_group(6),
              mk("(1 2 3 4 5 6 7);(2 4 3 7 5 6)", 7),
              catalog_group("PSL(2,8)"), catalog_group("AGL(1,13)")]:
        tab = group_table(G)
        ct = conjugacy_classes(G)
        for m in maximal_subgroups(G):
            union = 0
            for b in _orbit_bits(tab, m.member_indices()):
                union |= b
            classes_union = 0
            for ci, c in enumerate(ct.classes):
                if (m.mtilde_class_bits >> ci) & 1:
                    classes_union |= c.bits
            assert union == classes_union
            assert m.v == Fraction(union.bit_count(), G.order)


def test_v_less_than_one():
    for G in [symmetric_group(4), alternating_group(5), mk("(1 2)", 2)]:
        for m in maximal_subgroups(G):
            assert m.v < 1


def test_nilpotent_iff_all_maximals_normal():
    assert is_nilpotent(mk("(1 2 3 4 5 6 7 8)", 8))
    assert is_nilpotent(mk("(1 2 3 4);(1 3)", 4))       # D8
    assert not is_nilpotent(symmetric_group(3))
    assert not is_nilpotent(alternating_group(5))


def test_nilpotent_mtilde_equals_subgroup():
    # with every maximal normal, the union of conjugates is the subgroup
    for spec, deg in [("(1 2 3 4 5 6 7 8)", 8), ("(1 2);(3 4);(5 6)", 6)]:
        G = mk(spec, deg)
        ct = conjugacy_classes(G)
        for m in maximal_subgroups(G):
            covered = sum(ct.classes[ci].size
                          for ci in range(len(ct.classes))
                          if (m.mtilde_class_bits >> ci) & 1)
            assert covered == m.order


ATLAS_MAXIMALS = {
    # (order, class size) of each maximal class, in canonical order; these
    # agree with Conway et al., ATLAS of Finite Groups (1985)
    "A6": [(60, 6), (60, 6), (36, 10), (24, 15), (24, 15)],
    "S6": [(360, 1), (120, 6), (120, 6), (72, 10), (48, 15), (48, 15)],
    "A7": [(360, 7), (168, 15), (168, 15), (120, 21), (72, 35)],
    "S7": [(2520, 1), (720, 7), (240, 21), (144, 35), (42, 120)],
    "PSL(2,7)": [(24, 7), (24, 7), (21, 8)],
    "PSL(2,8)": [(56, 9), (18, 28), (14, 36)],
    "PSL(2,11)": [(60, 11), (60, 11), (55, 12), (12, 55)],
    "PGammaL(2,8)": [(504, 1), (168, 9), (54, 28), (42, 36)],
    "A8": [(2520, 8), (1344, 15), (1344, 15), (720, 28), (576, 35),
           (360, 56)],
}


@pytest.mark.parametrize("name", sorted(ATLAS_MAXIMALS))
def test_maximal_classes_match_atlas(name, get_group):
    from conftest import STRUCT_CAP
    ms = maximal_subgroups(get_group(name), cap=STRUCT_CAP)
    assert [(m.order, m.class_size) for m in ms] == ATLAS_MAXIMALS[name]


@pytest.mark.parametrize("name", ["A6", "S6", "A7", "S7", "PSL(2,11)",
                                  "PGammaL(2,8)", "AGL(1,13)"])
def test_maximal_classes_survive_relabelling(name, get_group):
    # conjugating the generators by a fixed permutation renumbers points and
    # reorders the element table, but must leave the classes' invariants
    G = get_group(name)
    rng = random.Random(f"relabel {name}")
    images = list(range(1, G.degree + 1))
    rng.shuffle(images)
    sigma = Perm(images)
    H = group_from_generators([sigma.inverse() * g * sigma
                               for g in G.generators])
    assert H.order == G.order
    assert ([(m.order, m.class_size, m.v) for m in maximal_subgroups(H)]
            == [(m.order, m.class_size, m.v) for m in maximal_subgroups(G)])


def test_caps_hold_whatever_the_call_history(get_group):
    # a cached result must not slip past a smaller cap than the one that
    # computed it: each call raises exactly as it would on a fresh group
    G = get_group("A7")
    maximal_subgroups(G, cap=25_000)
    chief_series(G)
    with pytest.raises(CapExceeded):
        maximal_subgroups(G, cap=100)
    S4 = symmetric_group(4)
    subgroup_lattice(S4)
    with pytest.raises(CapExceeded):
        subgroup_lattice(S4, cap=10)
    # the element table's bound is fixed, so no table past it is cached
    A10 = alternating_group(10)
    calls = [A10.elements, lambda: group_table(A10),
             lambda: conjugacy_classes(A10), lambda: chief_series(A10)]
    for call in calls:
        with pytest.raises(CapExceeded, match="enumeration cap 200000"):
            call()


# -- minimal normal subgroups and chief series -----------------------------

def test_minimal_normal_subgroups_match_every_class_rule(catalog, get_group):
    """Reference rule: the normal closure of a class is the subgroup its
    members generate; the minimal normal subgroups are the inclusion-minimal
    closures over every nonidentity class."""
    for entry in catalog:
        if entry.expected_order > 168:
            continue
        G = get_group(entry.name)
        tab = group_table(G)
        ct = conjugacy_classes(G)
        closures = {tab.bits_of(tab.closure(
            [i for i in range(tab.n) if c.bits >> i & 1]))
            for c in ct.classes[1:]}
        want = sorted((b.bit_count(), b) for b in closures
                      if not any(o != b and o | b == b for o in closures))
        got = minimal_normal_subgroups(G)
        assert [(n.order, n.bits) for n in got] == want, entry.name
        for n in got:
            assert tab.bits_of(tab.closure(n.gen_indices)) == n.bits


def test_chief_series_s4():
    series = chief_series(symmetric_group(4))
    assert sorted(f.order for f in series.factors) == [2, 3, 4]
    assert all(f.abelian for f in series.factors)
    assert series.a == 3 and series.b == 0


def test_chief_series_simple_group():
    series = chief_series(alternating_group(5))
    assert len(series.factors) == 1
    assert not series.factors[0].abelian
    assert (series.a, series.b) == (0, 1)


def test_chief_series_c8():
    series = chief_series(mk("(1 2 3 4 5 6 7 8)", 8))
    assert [f.order for f in series.factors] == [2, 2, 2]
    assert series.a == 3


def test_chief_series_factor_product_and_invariance():
    import math
    for G in [symmetric_group(4), alternating_group(5),
              mk("(1 2);(3 4);(5 6)", 6), mk("(1 2 3 4 5 6 7 8 9 10 11 12)", 12)]:
        series = chief_series(G)
        assert math.prod(f.order for f in series.factors) == G.order
        # conjugated copy gives the same multiset of (order, abelian)
        g = parse_cycles("(1 2)", G.degree)
        H = group_from_generators([p.conjugate(g) for p in G.generators])
        other = chief_series(H)
        assert sorted((f.order, f.abelian) for f in series.factors) == \
            sorted((f.order, f.abelian) for f in other.factors)
        assert all(f.abelian or f.order >= 60 for f in series.factors)
        for f in series.factors:
            if f.abelian:       # abelian chief factors have prime-power order
                n = f.order
                p = min(d for d in range(2, n + 1) if n % d == 0)
                while n % p == 0:
                    n //= p
                assert n == 1


# (order, abelian) of each chief factor of every catalog group, socle end
# first: a change of tie-break among minimal normal subgroups shows up here
CATALOG_CHIEF_FACTORS = [
    ('C2', [(2, True)]),
    ('C3', [(3, True)]),
    ('C4', [(2, True), (2, True)]),
    ('C5', [(5, True)]),
    ('C6', [(2, True), (3, True)]),
    ('C7', [(7, True)]),
    ('C8', [(2, True), (2, True), (2, True)]),
    ('C9', [(3, True), (3, True)]),
    ('C10', [(2, True), (5, True)]),
    ('C11', [(11, True)]),
    ('C12', [(2, True), (2, True), (3, True)]),
    ('C13', [(13, True)]),
    ('C14', [(2, True), (7, True)]),
    ('C15', [(3, True), (5, True)]),
    ('C16', [(2, True), (2, True), (2, True), (2, True)]),
    ('C2^2', [(2, True), (2, True)]),
    ('C2^3', [(2, True), (2, True), (2, True)]),
    ('C2^4', [(2, True), (2, True), (2, True), (2, True)]),
    ('S3', [(3, True), (2, True)]),
    ('S4', [(4, True), (3, True), (2, True)]),
    ('D8', [(2, True), (2, True), (2, True)]),
    ('Q8', [(2, True), (2, True), (2, True)]),
    ('A4', [(4, True), (3, True)]),
    ('A5', [(60, False)]),
    ('A6', [(360, False)]),
    ('A7', [(2520, False)]),
    ('A8', [(20160, False)]),
    ('S5', [(60, False), (2, True)]),
    ('S6', [(360, False), (2, True)]),
    ('S7', [(2520, False), (2, True)]),
    ('PSL(2,7)', [(168, False)]),
    ('PSL(2,8)', [(504, False)]),
    ('PSL(2,11)', [(660, False)]),
    ('AGL(1,5)', [(5, True), (2, True), (2, True)]),
    ('AGL(1,7)', [(7, True), (2, True), (3, True)]),
    ('AGL(1,11)', [(11, True), (2, True), (5, True)]),
    ('AGL(1,13)', [(13, True), (2, True), (2, True), (3, True)]),
    ('PGammaL(2,8)', [(504, False), (3, True)]),
]


def test_chief_factors_of_the_catalog_are_pinned(catalog, get_group):
    assert [n for n, _ in CATALOG_CHIEF_FACTORS] == [e.name for e in catalog]
    for name, want in CATALOG_CHIEF_FACTORS:
        series = chief_series(get_group(name))
        assert [(f.order, f.abelian) for f in series.factors] == want, name


def test_chief_series_matches_the_lattice_oracle(catalog, get_group):
    # S6 (order 720) and larger are left out: the oracle's normality and
    # commutator checks take about 2 s on S6 alone
    for entry in catalog:
        if entry.expected_order >= 720:
            continue
        G = get_group(entry.name)
        want = naive_chief_series(group_table(G).elements, G.generators,
                                  subgroup_lattice(G))
        got = [(f.order, f.abelian) for f in chief_series(G).factors]
        assert got == want, entry.name


def test_chief_series_builds_no_group_but_g(monkeypatch):
    # every factor is read off G's own table: no quotient group, no second
    # element table
    G = symmetric_group(7)
    group_table(G)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a new group or table was built")

    monkeypatch.setattr(PermGroup, "__init__", refuse)
    monkeypatch.setattr(GroupTable, "__init__", refuse)
    series = chief_series(G)
    assert [(f.order, f.abelian) for f in series.factors] == \
        [(2520, False), (2, True)]


# -- fusion -----------------------------------------------------------------

def test_fusion_a5_under_s5():
    a5 = alternating_group(5)
    fm = fuse_classes_under(a5, symmetric_group(5))
    assert fm.num_fused == 4
    merged = [m for m in fm.fused_classes if len(m) > 1]
    assert len(merged) == 1
    ct = conjugacy_classes(a5)
    assert {ct.classes[i].label for i in merged[0]} == {"5a", "5b"}


def test_fusion_identity_when_overgroup_is_self():
    a5 = alternating_group(5)
    fm = fuse_classes_under(a5, a5)
    assert fm.num_fused == len(conjugacy_classes(a5).classes)


def test_fusion_c3_in_s3():
    c3 = mk("(1 2 3)", 3)
    fm = fuse_classes_under(c3, symmetric_group(3))
    assert fm.num_fused == 2     # identity, and the two generators merge


def _check_fusion_by_brute_force(G, A):
    reps = [c.rep for c in conjugacy_classes(G).classes]
    fused = naive_fusion(reps, A.elements())
    # fused ids number the orbits by their least class index
    orbits = list(dict.fromkeys(fused))
    fm = fuse_classes_under(G, A)
    assert fm.fused_classes == [tuple(sorted(o)) for o in orbits]
    assert fm.fused_class_of == [orbits.index(f) for f in fused]


@pytest.mark.parametrize("n", [5, 6, 7])
def test_fusion_of_alternating_groups_matches_brute_force(n):
    _check_fusion_by_brute_force(alternating_group(n), symmetric_group(n))


def test_fusion_of_catalog_overgroups_matches_brute_force(catalog, get_group):
    entries = [e for e in catalog if e.overgroup is not None]
    assert entries
    for entry in entries:
        _check_fusion_by_brute_force(
            get_group(entry.name), families.resolve_overgroup(entry, catalog))


def test_normalizes():
    s4 = symmetric_group(4)
    assert normalizes(s4, alternating_group(4))
    assert normalizes(s4, mk("(1 2)(3 4);(1 3)(2 4)", 4))
    assert normalizes(s4, group_from_generators([Perm.identity(4)]))
    assert not normalizes(s4, mk("(1 2)", 4))
    with pytest.raises(ValueError, match="G is not normal in A"):
        fuse_classes_under(mk("(1 2)", 4), s4)


def test_fusion_requires_g_inside_a():
    with pytest.raises(ValueError, match="G is not a subgroup of A"):
        fuse_classes_under(symmetric_group(5), alternating_group(5))


def test_fusion_requires_normality():
    with pytest.raises(ValueError):
        fuse_classes_under(mk("(1 2)", 5), symmetric_group(5))
    with pytest.raises(ValueError):
        fuse_classes_under(symmetric_group(3), symmetric_group(4))
