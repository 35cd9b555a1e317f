import random
from fractions import Fraction

import pytest

from invgen import families
from invgen.families import (CatalogEntry, TupleMatrix, alternating_pair,
                             almost_simple_lower_example, best_invgen_pair,
                             catalog_group, instantiate, kl_criterion_check,
                             load_catalog, pigeonhole_bound,
                             random_tuple_matrix, resolve_overgroup,
                             search_generating_matrix, theorem3c_check)
from invgen.generation import build_profile, profile_row_of, invariably_generates
from invgen.group import PermGroup, alternating_group, group_from_generators, \
    power_group, symmetric_group
from invgen.perm import parse_cycles
from invgen.structure import fuse_classes_under

from oracles import naive_class_tuple_orbits


def mk(spec, deg, name=""):
    return group_from_generators([parse_cycles(s, deg) for s in spec.split(";")],
                                 name=name)


# -- alternating pairs --------------------------------------------------------

def test_pair_n8_shape():
    a, b = alternating_pair(8)
    assert sorted(len(c) for c in a.cycles()) == [2, 6]
    assert sorted(len(c) for c in b.cycles()) == [3, 5]     # least prime p = 3


def test_pair_n6_orders():
    a, b = alternating_pair(6)
    assert (a.order(), b.order()) == (4, 5)


def test_pair_n9_uses_five():
    a, b = alternating_pair(9)
    assert sorted(len(c) for c in a.cycles()) == [9]
    assert sorted(len(c) for c in b.cycles()) == [5]        # 3 divides 9


def test_pair_n5_special_case():
    a, b = alternating_pair(5)
    assert (a.order(), b.order()) == (5, 3)


def test_pairs_always_even():
    for n in range(5, 15):
        a, b = alternating_pair(n)
        assert a.is_even() and b.is_even()
        assert alternating_group(n).contains(a)


def test_pair_rejects_small_n():
    with pytest.raises(ValueError):
        alternating_pair(4)


def test_pairs_pass_exact_fused_test_small():
    for n in (5, 6):
        an = alternating_group(n)
        fm = fuse_classes_under(an, symmetric_group(n))
        prof = build_profile(an, fusion=fm)
        a, b = alternating_pair(n)
        assert invariably_generates(
            prof, [profile_row_of(prof, a), profile_row_of(prof, b)])


# -- generation criterion for direct powers -----------------------------------

def test_identical_columns_fail():
    a5 = alternating_group(5)
    rng = random.Random(2)
    t, u = a5.random_element(rng), a5.random_element(rng)
    M = TupleMatrix(entries=((t, t), (u, u)))
    assert not kl_criterion_check(a5, symmetric_group(5), M, cross_check=True)


def test_nongenerating_column_fails():
    a5 = alternating_group(5)
    five = parse_cycles("(1 2 3 4 5)", 5)
    other = parse_cycles("(1 2 3)", 5)
    M = TupleMatrix(entries=((five, other), (five ** 2, other ** 2)))
    assert not kl_criterion_check(a5, symmetric_group(5), M, cross_check=True)


def test_random_matrices_match_direct_order():
    a5 = alternating_group(5)
    s5 = symmetric_group(5)
    rng = random.Random(17)
    for _ in range(30):
        r = rng.randint(1, 3)
        k = rng.randint(1, 3)
        M = random_tuple_matrix(a5, r, k, rng)
        kl_criterion_check(a5, s5, M, cross_check=True)   # asserts agreement


def test_search_finds_2x2():
    a5 = alternating_group(5)
    M = search_generating_matrix(a5, symmetric_group(5), 2, 2, seed=9)
    assert M is not None
    gen = PermGroup(M.rows_as_power_elements())
    assert gen.order == 3600


def test_search_with_one_row_needs_a_cyclic_t(monkeypatch):
    """One element never generates A5, so the search returns None without a
    generation test; a cyclic T with r = 1, and a pinned 2x2 search, give
    the matrices they gave before the early return."""
    a5, s5 = alternating_group(5), symmetric_group(5)
    c5 = PermGroup([parse_cycles("(1 2 3 4 5)", 5)], name="C5")
    M = search_generating_matrix(c5, c5, 1, 4, seed=3)
    assert [[g.images for g in row] for row in M.entries] == [
        [(2, 3, 4, 5, 1), (5, 1, 2, 3, 4), (3, 4, 5, 1, 2), (4, 5, 1, 2, 3)]]
    M = search_generating_matrix(a5, s5, 2, 2, seed=9)
    assert [[g.images for g in row] for row in M.entries] == [
        [(5, 1, 4, 2, 3), (2, 3, 4, 5, 1)], [(5, 4, 2, 1, 3), (2, 3, 1, 4, 5)]]

    def no_generation_test(gens, order):
        raise AssertionError("generates called")

    monkeypatch.setattr(families, "generates", no_generation_test)
    assert search_generating_matrix(a5, s5, 1, 5, seed=5) is None


def test_hall_bound_a5_19_is_2_generated():
    """A5^19 is the largest 2-generated power of A5 (P. Hall, 1936): a 2x19
    matrix exists, more columns than pigeonhole_bound(A5, S5, 2) = 17, and
    the cross-check builds the exact chain of a degree-95 group of order
    60^19."""
    a5, s5 = alternating_group(5), symmetric_group(5)
    M = search_generating_matrix(a5, s5, 2, 19, seed=1)
    assert M is not None and (M.r, M.k) == (2, 19)
    assert M.k > pigeonhole_bound(a5, s5, 2)
    assert kl_criterion_check(a5, s5, M, cross_check=True)


def test_entry_outside_t_rejected():
    a5 = alternating_group(5)
    M = TupleMatrix(entries=((parse_cycles("(1 2)", 5),),))
    with pytest.raises(ValueError):
        kl_criterion_check(a5, symmetric_group(5), M)


def test_a_must_normalize_t():
    # S4 does not normalize <(1 2)>
    T, s4 = mk("(1 2)", 4), symmetric_group(4)
    M = TupleMatrix(entries=((T.generators[0],),))
    with pytest.raises(ValueError, match="A does not normalize T"):
        kl_criterion_check(T, s4, M)
    with pytest.raises(ValueError, match="A does not normalize T"):
        pigeonhole_bound(T, s4, 1)


# -- pigeonhole bound ----------------------------------------------------------

def test_pigeonhole_a5():
    a5 = alternating_group(5)
    s5 = symmetric_group(5)
    assert pigeonhole_bound(a5, s5, 1) == 4
    assert pigeonhole_bound(a5, s5, 2) == 17


def test_pigeonhole_matches_orbit_counts_under_all_of_s5():
    a5 = alternating_group(5)
    s5 = symmetric_group(5)
    for r in (1, 2, 3):
        assert pigeonhole_bound(a5, s5, r) == naive_class_tuple_orbits(
            a5.elements(), s5.elements(), r)


def test_pigeonhole_matches_fusion_count():
    a5 = alternating_group(5)
    s5 = symmetric_group(5)
    fm = fuse_classes_under(a5, s5)
    assert pigeonhole_bound(a5, s5, 1) == fm.num_fused


def test_pigeonhole_abelian_inner_action():
    c6 = mk("(1 2 3 4 5 6)", 6)
    for r in (1, 2, 3):
        assert pigeonhole_bound(c6, c6, r) == 6 ** r


# -- catalog -------------------------------------------------------------------

def test_catalog_loads_and_instantiates_spot():
    cat = load_catalog()
    names = {e.name for e in cat}
    for required in ["C2", "C16", "C2^4", "S3", "S4", "D8", "Q8", "A4", "A5",
                     "A8", "S7", "PSL(2,7)", "PSL(2,8)", "PSL(2,11)",
                     "AGL(1,5)", "AGL(1,13)", "PGammaL(2,8)"]:
        assert required in names
    assert catalog_group("A5").order == 60
    assert catalog_group("AGL(1,7)").order == 42
    assert catalog_group("PGammaL(2,8)").order == 1512


def test_catalog_integrity_every_entry(catalog):
    for e in catalog:
        G = instantiate(e)
        assert G.order == e.expected_order, e.name


def test_simple_entries_invariably_two_generated(catalog, get_group):
    from conftest import STRUCT_CAP
    from invgen.generation import d_i_exact
    simple = [e.name for e in catalog if e.has_tag("simple")]
    assert {"A5", "A6", "A7", "A8", "PSL(2,7)", "PSL(2,8)",
            "PSL(2,11)"} <= set(simple)
    for name in simple:
        G = get_group(name)
        prof = build_profile(G, cap=STRUCT_CAP)
        assert d_i_exact(prof)[0] == 2, name


def test_catalog_order_mismatch_rejected():
    bad = CatalogEntry(name="bogus", degree=3,
                       generator_strings=("(1 2 3)",), expected_order=5,
                       tags=(), overgroup=None)
    with pytest.raises(ValueError, match="corrupted"):
        instantiate(bad)


def test_overgroup_resolution():
    cat = load_catalog()
    a5 = next(e for e in cat if e.name == "A5")
    over = resolve_overgroup(a5, cat)
    assert over.order == 120
    a8 = next(e for e in cat if e.name == "A8")
    assert resolve_overgroup(a8, cat).order == 40320   # built-in S8


def test_catalog_parse_error():
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "bad.txt"
        p.write_text("onlyonefield\n")
        with pytest.raises(ValueError, match="malformed"):
            load_catalog(p)


# -- large-class checks ----------------------------------------------------------

def test_theorem3c_a5():
    a5 = alternating_group(5)
    prof = build_profile(a5)
    rep = theorem3c_check(a5, (prof.row_of_label("3"), prof.row_of_label("5a")))
    assert rep.class_sizes == (20, 12)
    assert abs(rep.threshold - 60 ** (2 / 3) / 2) < 1e-9
    assert rep.all_pass


def test_theorem3c_requires_generating_witness():
    a5 = alternating_group(5)
    prof = build_profile(a5)
    with pytest.raises(ValueError):
        theorem3c_check(a5, (prof.row_of_label("5a"), prof.row_of_label("5b")))


def test_best_pair_a6_passes():
    a6 = alternating_group(6)
    pair = best_invgen_pair(a6)
    assert pair is not None
    rep = theorem3c_check(a6, pair)
    assert rep.all_pass


# -- the socle example -----------------------------------------------------------

def test_almost_simple_lower_example():
    G = catalog_group("PGammaL(2,8)")
    rep = almost_simple_lower_example(G)
    assert rep.socle_order == 504
    assert rep.field_auto_order == 3
    assert rep.normalizer_order == 18
    assert rep.maximal_order == 54
    assert rep.v == Fraction(6, 7)
    assert rep.v >= 1 - Fraction(1, rep.field_auto_order)
    assert rep.v < 1
    assert rep.fpf_inside_socle
