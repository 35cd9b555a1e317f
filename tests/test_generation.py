import dataclasses
import gc
import random

import pytest

from invgen.generation import (build_profile, chief_bound_check,
                               class_count_bounds, d_i_exact,
                               find_noninvariable_generating_set,
                               invariably_generates,
                               invariably_generates_elements,
                               invgen_sample_refuter, profile_from_classes,
                               profile_row_of)
from invgen.families import resolve_overgroup
from invgen.group import PermGroup, alternating_group, group_from_generators, \
    symmetric_group
from invgen.maximal import maximal_subgroups
from invgen.perm import Perm, parse_cycles
from invgen.structure import conjugacy_classes, fuse_classes_under

from conftest import STRUCT_CAP
from oracles import (exhaustive_invariable_generation,
                     naive_conjugacy_classes, naive_cyclic_subgroup_classes,
                     naive_least_minimum_cover)


def mk(spec, deg, name=""):
    return group_from_generators([parse_cycles(s, deg) for s in spec.split(";")],
                                 name=name)


def rows(profile, *labels):
    return [profile.row_of_label(l) for l in labels]


# -- profile construction ---------------------------------------------------

def test_a5_profile_matrix():
    a5 = alternating_group(5)
    prof = build_profile(a5)
    # columns in canonical order: orders 12, 10, 6
    assert prof.column_labels == tuple(m.label for m in maximal_subgroups(a5))
    assert [m.order for m in maximal_subgroups(a5)] == [12, 10, 6]
    expect = {"1": [1, 1, 1], "2": [1, 1, 1], "3": [1, 0, 1],
              "5a": [0, 1, 0], "5b": [0, 1, 0]}
    for label, want in expect.items():
        r = prof.rows[prof.row_of_label(label)]
        assert [(r >> c) & 1 for c in range(3)] == want


def test_a5_fused_row():
    a5 = alternating_group(5)
    fm = fuse_classes_under(a5, symmetric_group(5))
    prof = build_profile(a5, fusion=fm)
    r = prof.rows[prof.row_of_label("5a+5b")]
    assert [(r >> c) & 1 for c in range(3)] == [0, 1, 0]


def test_cyclic_prime_profile():
    prof = build_profile(mk("(1 2 3 4 5)", 5))
    assert prof.num_columns == 1
    assert prof.rows[0] == 1                      # identity row all ones
    assert all(r == 0 for r in prof.rows[1:])     # generators in no maximal


def test_identity_row_all_ones_and_columns_covered():
    for G in [alternating_group(5), symmetric_group(4), mk("(1 2 3 4 5 6)", 6)]:
        prof = build_profile(G)
        full = (1 << prof.num_columns) - 1
        assert prof.rows[0] == full
        union = 0
        for r in prof.rows:
            union |= r
        assert union == full


def test_kill_sets_union_covers_all_columns():
    for G in [alternating_group(5), symmetric_group(4)]:
        prof = build_profile(G)
        full = (1 << prof.num_columns) - 1
        union = 0
        for k in prof.kill:
            union |= k
        assert union == full
        assert prof.kill[0] == 0                  # identity kills nothing


# -- the test itself --------------------------------------------------------

def test_invariably_generates_a5_examples():
    prof = build_profile(alternating_group(5))
    assert invariably_generates(prof, rows(prof, "3", "5a"))
    assert not invariably_generates(prof, rows(prof, "5a", "5b"))
    assert not invariably_generates(prof, [prof.row_of_label("1")])


def test_multiset_duplicates_allowed_but_useless():
    prof = build_profile(alternating_group(5))
    r5 = prof.row_of_label("5a")
    assert not invariably_generates(prof, [r5, r5, r5])


def test_index_out_of_range():
    prof = build_profile(alternating_group(5))
    with pytest.raises(IndexError):
        invariably_generates(prof, [99])


def test_profile_row_of_needs_a_group():
    """A5's profile rebuilt from its own class data equals it but for the
    group, and elements cannot be mapped to its rows."""
    full = build_profile(alternating_group(5))
    columns = [sum(1 << r for r, row in enumerate(full.rows) if row >> j & 1)
               for j in range(full.num_columns)]
    p = profile_from_classes(full.order, full.class_sizes, full.class_labels,
                             columns, full.column_labels)
    assert p == dataclasses.replace(full, group=None)
    x = parse_cycles("(1 2 3)", 5)
    with pytest.raises(ValueError, match="no group to map elements"):
        profile_row_of(p, x)
    with pytest.raises(ValueError, match="no group to map elements"):
        invariably_generates_elements(p, [x])


def test_monotone_in_extra_classes():
    prof = build_profile(symmetric_group(4))
    base = rows(prof, "4", "3")
    assert invariably_generates(prof, base)
    for extra in range(len(prof.rows)):
        assert invariably_generates(prof, base + [extra])


def test_conjugation_invariance_element_wrapper():
    G = alternating_group(5)
    prof = build_profile(G)
    x = parse_cycles("(1 2 3)", 5)
    y = parse_cycles("(1 2 3 4 5)", 5)
    rng = random.Random(4)
    for _ in range(20):
        g, h = G.random_element(rng), G.random_element(rng)
        assert invariably_generates_elements(prof, [x, y]) == \
            invariably_generates_elements(prof, [x.conjugate(g), y.conjugate(h)])


def test_agrees_with_exhaustive_definition_small():
    # spot instances; the full order <= 120 sweep is in the acceptance suite
    for G in [symmetric_group(3), mk("(1 2);(3 4)", 4), alternating_group(4)]:
        prof = build_profile(G)
        ct = conjugacy_classes(G)
        k = len(ct.classes)
        for i in range(k):
            for j in range(i, k):
                mine = invariably_generates(prof, [i, j])
                truth = exhaustive_invariable_generation(
                    G, [ct.classes[i].rep, ct.classes[j].rep])
                assert mine == truth, (G.name, i, j)


# -- exact d_I ----------------------------------------------------------------

def test_d_i_values():
    assert d_i_exact(build_profile(alternating_group(5)))[0] == 2
    assert d_i_exact(build_profile(symmetric_group(4)))[0] == 2
    assert d_i_exact(build_profile(mk("(1 2);(3 4);(5 6)", 6)))[0] == 3
    assert d_i_exact(build_profile(mk("(1 2 3 4 5 6 7)", 7)))[0] == 1


def test_d_i_witness_verifies_and_is_canonical():
    prof = build_profile(symmetric_group(4))
    d, witness = d_i_exact(prof)
    assert d == 2
    assert invariably_generates(prof, witness)
    assert [prof.class_labels[r] for r in witness] == ["4", "3"]


def test_d_i_is_the_least_minimum_cover(catalog, get_group):
    # every catalog group, plain and fused under its overgroup, against a
    # cover search over all subsets of rows
    for entry in catalog:
        G = get_group(entry.name)
        profiles = [build_profile(G, cap=STRUCT_CAP)]
        if entry.overgroup is not None:
            fm = fuse_classes_under(G, resolve_overgroup(entry, catalog))
            profiles.append(build_profile(G, fusion=fm, cap=STRUCT_CAP))
        for prof in profiles:
            assert d_i_exact(prof) == naive_least_minimum_cover(
                prof.kill, prof.num_columns), entry.name


def test_d_i_on_c2_5():
    G = mk("(1 2);(3 4);(5 6);(7 8);(9 10)", 10)
    assert d_i_exact(build_profile(G)) == (5, [1, 2, 4, 8, 16])


def test_d_i_leaves_no_cyclic_garbage():
    # without the cycle collector, everything a call made is freed by
    # reference counting alone
    gc.collect()
    gc.disable()
    try:
        d_i_exact(build_profile(alternating_group(5)))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_d_i_trivial_group():
    G = group_from_generators([Perm.identity(1)])
    prof = build_profile(G)
    assert d_i_exact(prof) == (0, [])
    assert invariably_generates(prof, [])


def test_d_i_at_least_two_for_noncyclic():
    for G in [alternating_group(4), alternating_group(5), symmetric_group(4),
              mk("(1 2);(3 4)", 4), mk("(1 2 3 4);(1 3)", 4)]:
        assert d_i_exact(build_profile(G))[0] >= 2


def test_fused_d_i_at_least_unfused():
    for name, n in [("A4", 4), ("A5", 5), ("A6", 6)]:
        G = alternating_group(n)
        plain = d_i_exact(build_profile(G))[0]
        fused = d_i_exact(build_profile(
            G, fusion=fuse_classes_under(G, symmetric_group(n))))[0]
        assert fused >= plain


# -- bounds -------------------------------------------------------------------

def test_class_count_bounds_examples():
    assert class_count_bounds(alternating_group(5)) == (5, 4)
    assert class_count_bounds(mk("(1 2 3 4 5 6)", 6)) == (6, 4)
    k, cyc = class_count_bounds(symmetric_group(4))
    assert (k, cyc) == (5, 5)


def test_class_count_bounds_match_brute_force(catalog, get_group):
    for entry in catalog:
        if entry.expected_order > 120:
            continue
        G = get_group(entry.name)
        elements = G.elements()
        assert class_count_bounds(G) == (
            len(naive_conjugacy_classes(elements)),
            naive_cyclic_subgroup_classes(elements)), entry.name


def test_chief_bound_reports():
    rep = chief_bound_check(symmetric_group(4))
    assert rep.d_i == 2 and rep.a_plus_2b == 3
    assert rep.within_chief_bound and rep.within_log2_bound

    rep = chief_bound_check(alternating_group(5))
    assert rep.d_i == 2 and rep.a_plus_2b == 2      # tight for simple groups

    rep = chief_bound_check(mk("(1 2);(3 4);(5 6);(7 8)", 8))
    assert rep.d_i == 4 == rep.a_plus_2b == rep.log2_order


def test_log2_bound_is_an_integer_test_on_c2_4(get_group):
    G = get_group("C2^4")
    rep = chief_bound_check(G)
    assert rep.d_i == 4 and 2 ** rep.d_i == G.order == 16
    assert rep.within_log2_bound


# -- the nilpotency dichotomy -------------------------------------------------

def test_s3_construction():
    s3 = symmetric_group(3)
    X, Y = find_noninvariable_generating_set(s3)
    assert PermGroup(X).order == 6
    assert PermGroup(Y).order < 6
    # Y is similar to X: same multiset of conjugacy classes
    ct = conjugacy_classes(s3)
    cx = sorted(ct.class_of_element(p) for p in X)
    cy = sorted(ct.class_of_element(p) for p in Y)
    assert cx == cy


def test_nilpotent_groups_return_none():
    assert find_noninvariable_generating_set(mk("(1 2 3 4 5 6 7 8)", 8)) is None
    assert find_noninvariable_generating_set(mk("(1 2 3 4);(1 3)", 4)) is None
    assert find_noninvariable_generating_set(mk("(1 2);(3 4)", 4)) is None


def test_non_nilpotent_construction_exists():
    for G in [symmetric_group(4), alternating_group(4),
              mk("(1 2 3 4 5);(2 3 5 4)", 5)]:
        out = find_noninvariable_generating_set(G)
        assert out is not None
        X, Y = out
        assert PermGroup(X).order == G.order
        assert PermGroup(Y).order < G.order


# -- the refuter --------------------------------------------------------------

def test_refuter_finds_bad_pair():
    a5 = alternating_group(5)
    ct = conjugacy_classes(a5)
    e5a = ct.classes[1].rep
    e5b = ct.classes[2].rep
    verdict = invgen_sample_refuter(a5, [e5a, e5b], 500, random.Random(7))
    assert verdict.refuted
    assert verdict.failing_conjugators is not None
    twisted = [p.conjugate(g) for p, g in
               zip([e5a, e5b], verdict.failing_conjugators)]
    assert PermGroup(twisted).order < 60


def test_refuter_passes_good_pair():
    a5 = alternating_group(5)
    x = parse_cycles("(1 2 3)", 5)
    y = parse_cycles("(1 2 3 4 5)", 5)
    verdict = invgen_sample_refuter(a5, [x, y], 500, random.Random(7))
    assert not verdict.refuted
    assert verdict.trials_run == 500


def test_refuter_identity_refutes_immediately():
    a5 = alternating_group(5)
    verdict = invgen_sample_refuter(a5, [Perm.identity(5)], 10,
                                    random.Random(1))
    assert verdict.refuted and verdict.trials_run == 1


@pytest.mark.parametrize("call, message", [
    (lambda: invgen_sample_refuter(alternating_group(5), [], 0,
                                   random.Random(1)),
     "trials must be >= 1"),
    (lambda: build_profile(alternating_group(5), fusion=fuse_classes_under(
        alternating_group(4), symmetric_group(4))),
     "fusion map belongs to a different group"),
])
def test_bad_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_refuter_rejects_foreign_elements():
    with pytest.raises(ValueError):
        invgen_sample_refuter(alternating_group(5), [parse_cycles("(1 2)", 5)],
                              10, random.Random(1))
