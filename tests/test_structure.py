from fractions import Fraction

import pytest

from invgen.group import (alternating_group, group_from_generators,
                          symmetric_group)
from invgen.maximal import maximal_subgroups
from invgen.perm import parse_cycles
from invgen.structure import (CapExceeded, chief_series, conjugacy_classes,
                              fuse_classes_under, group_table, is_nilpotent,
                              is_normal_bits, quotient_group,
                              subgroup_lattice, v_of)

from oracles import naive_conjugacy_classes, naive_subgroup_lattice


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


def test_lattice_cap():
    with pytest.raises(CapExceeded):
        subgroup_lattice(alternating_group(5), cap=50)


def test_lattice_records_are_subgroups():
    for rec in subgroup_lattice(symmetric_group(4)):
        assert rec.order == rec.bits.bit_count()
        assert rec.bits & 1          # contains the identity (index 0)


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
    from invgen.perm import Perm
    G = group_from_generators([Perm.identity(1)])
    assert maximal_subgroups(G) == []


def test_maximal_matches_lattice_route_small():
    # independent route: maximal elements of the full subgroup lattice
    for G in [mk("(1 2 3 4 5 6)", 6), symmetric_group(4),
              alternating_group(5), mk("(1 2 3 4);(1 3)", 4),
              mk("(1 2 3 4 5);(2 3 5 4)", 5)]:
        records = subgroup_lattice(G)
        proper = [r for r in records if r.order < G.order]
        maximal_bits = [r.bits for r in proper
                        if not any(o.bits != r.bits and r.bits | o.bits == o.bits
                                   for o in proper)]
        ms = maximal_subgroups(G)
        assert sum(m.class_size for m in ms) == len(maximal_bits)
        rep_bits = {m.rep_bits for m in ms}
        assert rep_bits <= set(maximal_bits)


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
            assert is_normal_bits(tab, m.core_bits, gens or [0])


def test_mtilde_equals_union_of_conjugates_small():
    # element-wise union of conjugates vs class-bitset route, order <= 600
    from invgen.families import catalog_group
    from invgen.maximal import _subgroup_orbit
    for G in [symmetric_group(4), alternating_group(5),
              mk("(1 2 3 4 5);(2 3 5 4)", 5), alternating_group(6),
              mk("(1 2 3 4 5 6 7);(2 4 3 7 5 6)", 7),
              catalog_group("PSL(2,8)"), catalog_group("AGL(1,13)")]:
        tab = group_table(G)
        ct = conjugacy_classes(G)
        for m in maximal_subgroups(G):
            union = 0
            for s in _subgroup_orbit(tab, frozenset(m.member_indices())):
                union |= tab.bits_of(sorted(s))
            classes_union = 0
            for ci, c in enumerate(ct.classes):
                if (m.mtilde_class_bits >> ci) & 1:
                    classes_union |= c.bits
            assert union == classes_union
            assert m.v == Fraction(union.bit_count(), G.order)


def test_v_less_than_one():
    for G in [symmetric_group(4), alternating_group(5), mk("(1 2)", 2)]:
        for m in maximal_subgroups(G):
            assert v_of(m) < 1


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


def test_caps_hold_whatever_the_call_history(get_group):
    # a cached result must not slip past a smaller cap than the one that
    # computed it: each call raises exactly as it would on a fresh group
    G = get_group("A7")
    maximal_subgroups(G, cap=25_000)
    chief_series(G)
    calls = [lambda: maximal_subgroups(G, cap=100),
             lambda: group_table(G, cap=100),
             lambda: conjugacy_classes(G, cap=100),
             lambda: chief_series(G, cap=100),
             lambda: G.elements(cap=100)]
    for call in calls:
        with pytest.raises(CapExceeded):
            call()
    S4 = symmetric_group(4)
    subgroup_lattice(S4)
    with pytest.raises(CapExceeded):
        subgroup_lattice(S4, cap=10)


# -- quotients and chief series ---------------------------------------------

def test_quotient_s4_by_v4():
    s4 = symmetric_group(4)
    v4 = next(r for r in subgroup_lattice(s4)
              if r.order == 4 and
              is_normal_bits(group_table(s4), r.bits, r.gen_indices))
    q = quotient_group(s4, v4)
    assert q.order == 6
    assert sorted({p.order() for p in q.elements()}) == [1, 2, 3]


def test_quotient_by_whole_and_trivial():
    s4 = symmetric_group(4)
    records = subgroup_lattice(s4)
    whole = next(r for r in records if r.order == 24)
    triv = next(r for r in records if r.order == 1)
    assert quotient_group(s4, whole).order == 1
    regular = quotient_group(s4, triv)
    assert regular.order == 24 and regular.degree == 24


def test_quotient_requires_normal():
    s4 = symmetric_group(4)
    h = next(r for r in subgroup_lattice(s4)
             if r.order == 2 and not
             is_normal_bits(group_table(s4), r.bits, r.gen_indices))
    with pytest.raises(ValueError):
        quotient_group(s4, h)


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


def test_fusion_requires_normality():
    with pytest.raises(ValueError):
        fuse_classes_under(mk("(1 2)", 5), symmetric_group(5))
    with pytest.raises(ValueError):
        fuse_classes_under(symmetric_group(3), symmetric_group(4))
