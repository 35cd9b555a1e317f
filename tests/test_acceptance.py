"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the summary
lines inline).  The structural cap is raised to 25000 here so the largest
catalog group (order 20160) is analyzed exactly; sweeps that the criteria
scope to "within the lattice cap" use the default cap of 20000.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from invgen import chebotarev as cheb
from invgen import families, generation, structure
from invgen.group import PermGroup, alternating_group, symmetric_group
from invgen.structure import group_table

from conftest import STRUCT_CAP
from oracles import (exhaustive_invariable_generation,
                     naive_conjugacy_classes, naive_maximal_classes,
                     naive_subgroup_lattice)

DEFAULT_CAP = 20_000
SEED = 20_260_810


def _report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


def _catalog_groups(catalog, get_group, max_order):
    for e in catalog:
        if e.expected_order <= max_order:
            yield e, get_group(e.name)


def test_criterion_01_exact_engine_oracles(catalog, get_group):
    """Conjugacy classes, subgroup lattice and maximal classes match the
    brute-force oracles on every catalog group of order <= 120, in < 60 s."""
    t0 = time.monotonic()
    checked = 0
    for entry, G in _catalog_groups(catalog, get_group, 120):
        elements = G.elements()
        tab = group_table(G)
        ct = structure.conjugacy_classes(G)
        want_classes = naive_conjugacy_classes(elements)
        assert sorted((c.size, c.rep.images) for c in ct.classes) == \
            sorted((len(c), min(p.images for p in c)) for c in want_classes), \
            entry.name
        records = structure.subgroup_lattice(G)
        got_lattice = {frozenset(tab.elements[i] for i in r.member_indices())
                       for r in records}
        want_lattice = naive_subgroup_lattice(elements)
        assert got_lattice == want_lattice, entry.name
        want_max = naive_maximal_classes(elements, want_lattice)
        got_max = structure.maximal_subgroups(G)
        assert sorted((m.order, m.class_size) for m in got_max) == \
            sorted((len(c[0]), len(c)) for c in want_max), entry.name
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    _report(1, f"{checked} groups of order <= 120 match the brute-force "
               f"oracles in {elapsed:.1f}s")


def test_criterion_02_generation_test_oracle(catalog, get_group):
    """The class-level test agrees with exhaustive conjugate enumeration for
    every class multiset of size <= 2, on every catalog group <= 120."""
    checked_pairs = 0
    for entry, G in _catalog_groups(catalog, get_group, 120):
        prof = generation.build_profile(G)
        ct = structure.conjugacy_classes(G)
        k = len(ct.classes)
        assert generation.invariably_generates(prof, []) == (G.order == 1)
        for i in range(k):
            mine = generation.invariably_generates(prof, [i])
            truth = exhaustive_invariable_generation(G, [ct.classes[i].rep])
            assert mine == truth, (entry.name, i)
            checked_pairs += 1
        for i in range(k):
            for j in range(i, k):
                mine = generation.invariably_generates(prof, [i, j])
                truth = exhaustive_invariable_generation(
                    G, [ct.classes[i].rep, ct.classes[j].rep])
                assert mine == truth, (entry.name, i, j)
                checked_pairs += 1
    _report(2, f"class-level test matches the exhaustive definition on "
               f"{checked_pairs} multisets")


def test_criterion_03_d_i_values_and_bound_sweeps(catalog, get_group):
    """Named d_I values; d_I <= log2|G| with equality exactly on elementary
    abelian 2-groups; d_I <= a + 2b with equality for A5 and C2^r."""
    def d_i(name):
        prof = generation.build_profile(get_group(name), cap=STRUCT_CAP)
        return generation.d_i_exact(prof)[0]

    assert d_i("A5") == 2
    assert d_i("S4") == 2
    assert d_i("PSL(2,7)") == 2
    assert d_i("C2") == 1 and d_i("C2^2") == 2 and d_i("C2^3") == 3 \
        and d_i("C2^4") == 4
    for p in (2, 3, 5, 7, 11, 13):
        assert d_i(f"C{p}") == 1

    elementary_2 = {"C2", "C2^2", "C2^3", "C2^4"}
    equal_chief = {"A5", "C2", "C2^2", "C2^3", "C2^4"}
    rows = 0
    for entry, G in _catalog_groups(catalog, get_group, STRUCT_CAP):
        rep = generation.chief_bound_check(G, cap=STRUCT_CAP)
        assert rep.within_log2_bound, entry.name
        is_equal = 2 ** rep.d_i == G.order
        assert is_equal == (entry.name in elementary_2), entry.name
        assert rep.within_chief_bound, entry.name
        if entry.name in equal_chief:
            assert rep.d_i == rep.a_plus_2b, entry.name
        rows += 1
    _report(3, f"d_I values pinned; both bound sweeps hold on {rows} groups "
               f"(equality sets as expected)")


def test_criterion_04_chebotarev_three_ways(get_group):
    """C(C2) = 2, C(C2^2) = 10/3, C(A5) = 91/22 via the subset formula, the
    partial sum with tail bound, and seeded Monte Carlo, in < 30 s."""
    t0 = time.monotonic()
    expected = {"C2": Fraction(2), "C2^2": Fraction(10, 3),
                "A5": Fraction(91, 22)}
    for name, want in expected.items():
        G = get_group(name)
        fam = cheb.distinct_tilde_family(G)
        c_formula = cheb.chebotarev_exact(fam)
        assert c_formula == want, name
        partial, tail = cheb.chebotarev_partial_sum(fam, 50)
        assert abs(c_formula - partial) <= tail, name
        est = cheb.chebotarev_mc(G, 20_000, seed=SEED)
        assert abs(est.mean - float(want)) <= 4 * est.std_error, \
            (name, est.mean, float(want), est.std_error)
    elapsed = time.monotonic() - t0
    assert elapsed < 30, f"criterion 4 took {elapsed:.1f}s"
    _report(4, f"three-way agreement for C2, C2^2, A5 in {elapsed:.1f}s")


def test_criterion_05_sandwich_all_catalog(catalog, get_group):
    """Exact rational sandwich for every catalog group and k = 1..8."""
    rows = 0
    for entry, G in _catalog_groups(catalog, get_group, STRUCT_CAP):
        for k in range(1, 9):
            rep = cheb.p_i_sandwich_check(G, k, cap=STRUCT_CAP)
            assert rep.lower_ok and rep.upper_ok, (entry.name, k)
        rows += 1
    _report(5, f"sandwich holds in exact rationals for {rows} groups, k=1..8")


def test_criterion_06_nilpotency_dichotomy(catalog, get_group):
    """nilpotent <=> all 200 seeded random generating sets invariably
    generate <=> the counterexample construction returns none (full catalog
    within the default lattice cap)."""
    rows = 0
    for entry, G in _catalog_groups(catalog, get_group, DEFAULT_CAP):
        nil = structure.is_nilpotent(G, cap=STRUCT_CAP)
        construction = generation.find_noninvariable_generating_set(
            G, cap=STRUCT_CAP)
        assert nil == (construction is None), entry.name
        if construction is not None:
            X, Y = construction
            assert PermGroup(X).order == G.order
            assert PermGroup(Y).order < G.order
        sampled_all = _sampled_generating_sets_all_invgen(G, SEED)
        assert nil == sampled_all, entry.name
        rows += 1
    _report(6, f"nilpotency dichotomy holds in both directions on {rows} "
               f"groups (200 seeded samples each)")


def _sampled_generating_sets_all_invgen(G, seed, samples=200) -> bool:
    if G.order == 1:
        return True
    prof = generation.build_profile(G, cap=STRUCT_CAP)
    rng = random.Random(seed)
    max_size = max(3, math.ceil(math.log2(G.order)))
    kept = 0
    tries = 0
    while kept < samples:
        tries += 1
        assert tries < 200 * samples, "generating-set sampling stalled"
        xs = [G.random_element(rng) for _ in range(rng.randint(1, max_size))]
        if PermGroup(xs).order != G.order:
            continue
        kept += 1
        if not generation.invariably_generates_elements(prof, xs):
            return False
    return True


def test_criterion_07_ratio_brackets(catalog, get_group):
    """Recorded growth-constant brackets: C/sqrt(|G| ln|G|) <= 2.0 on the
    whole catalog; C/sqrt(|G|) in [1, 2.5] for the sharply 2-transitive
    entries."""
    rows = 0
    for entry, G in _catalog_groups(catalog, get_group, STRUCT_CAP):
        rep = cheb.theorem2_ratio_report(G, cap=STRUCT_CAP)
        assert rep.ratio_sqrt_log <= 2.0, (entry.name, rep.ratio_sqrt_log)
        rows += 1
    for p in (5, 7, 11, 13):
        rep = cheb.theorem2_ratio_report(get_group(f"AGL(1,{p})"),
                                         cap=STRUCT_CAP)
        assert 1.0 <= rep.ratio_sqrt <= 2.5, (p, rep.ratio_sqrt)
    _report(7, f"ratio brackets hold on {rows} groups; sharply 2-transitive "
               f"entries inside [1, 2.5]")


def test_criterion_08_alternating_families(get_group):
    """alternating_pair(n): exact fused test for n = 5..8, thousand-trial
    refuter for n = 9..14, all inside 5 minutes."""
    t0 = time.monotonic()
    for n in (5, 6, 7, 8):
        an = get_group(f"A{n}") if n >= 5 else alternating_group(n)
        fm = structure.fuse_classes_under(an, symmetric_group(n))
        prof = generation.build_profile(an, fusion=fm, cap=STRUCT_CAP)
        x, y = families.alternating_pair(n)
        assert generation.invariably_generates(
            prof, [generation.profile_row_of(prof, x),
                   generation.profile_row_of(prof, y)]), n
    rng = random.Random(SEED)
    for n in range(9, 15):
        an = alternating_group(n)
        x, y = families.alternating_pair(n)
        verdict = generation.invgen_sample_refuter(an, [x, y], 1000, rng)
        assert not verdict.refuted, n
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"criterion 8 took {elapsed:.1f}s"
    _report(8, f"exact fused checks (n=5..8) and refuters (n=9..14) in "
               f"{elapsed:.1f}s")


def test_criterion_09_power_group_instance(get_group):
    """Orbit count 17 for class pairs; a seeded 2x18 matrix generating the
    18th power; the criterion matches direct order computation on 200
    seeded random matrices with k <= 3."""
    a5 = get_group("A5")
    s5 = symmetric_group(5)
    assert families.pigeonhole_bound(a5, s5, 2) == 17
    M = families.search_generating_matrix(a5, s5, 2, 18, seed=SEED)
    assert M is not None and M.r == 2 and M.k == 18
    assert families.kl_criterion_check(a5, s5, M)
    from invgen.group import power_group
    generated = PermGroup(M.rows_as_power_elements())
    assert generated.order == power_group(a5, 18).order == 60 ** 18
    # 18 columns > 17 orbits certifies that no 2-element set can invariably
    # generate the 18th power even though 2 elements generate it outright
    rng = random.Random(SEED)
    for _ in range(200):
        r = rng.randint(1, 3)
        k = rng.randint(1, 3)
        Mrand = families.random_tuple_matrix(a5, r, k, rng)
        families.kl_criterion_check(a5, s5, Mrand, cross_check=True)
    _report(9, "pigeonhole bound 17 < 18 with a generating 2x18 matrix; "
               "criterion matches direct orders on 200 random matrices")


def test_criterion_10_socle_example_and_large_classes(catalog, get_group):
    """The located maximal class of the degree-9 almost-simple group has
    v >= 2/3 with all fixed-point-free elements in the socle; large-class
    witnesses pass for A5, A6, A7."""
    G = get_group("PGammaL(2,8)")
    rep = families.almost_simple_lower_example(G, cap=STRUCT_CAP)
    assert rep.v >= Fraction(2, 3)
    assert rep.v < 1
    assert rep.fpf_inside_socle
    a5 = get_group("A5")
    prof5 = generation.build_profile(a5)
    r5 = families.theorem3c_check(
        a5, (prof5.row_of_label("3"), prof5.row_of_label("5a")))
    assert r5.all_pass
    for name in ("A6", "A7"):
        an = get_group(name)
        pair = families.best_invgen_pair(an, cap=STRUCT_CAP)
        assert pair is not None
        assert families.theorem3c_check(an, pair, cap=STRUCT_CAP).all_pass
    _report(10, f"socle example v = {rep.v} >= 2/3 with fixed-point-free "
                f"elements inside the socle; large-class witnesses pass "
                f"for A5, A6, A7")
