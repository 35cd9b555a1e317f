import math
from fractions import Fraction

import pytest

from invgen.chebotarev import (chebotarev_exact, chebotarev_mc,
                               chebotarev_partial_sum,
                               distinct_tilde_family, p_i_exact,
                               p_i_sandwich_check, p_i_sandwich_checks,
                               theorem2_ratio_report, tilde_family)
from invgen.generation import build_profile, d_i_exact, profile_from_classes
from invgen.group import CapExceeded, alternating_group, \
    group_from_generators, symmetric_group
from invgen.maximal import maximal_subgroups
from invgen.perm import parse_cycles
from invgen.structure import conjugacy_classes, fuse_classes_under

from oracles import exhaustive_p_i, inclusion_exclusion


def mk(spec, deg, name=""):
    return group_from_generators([parse_cycles(s, deg) for s in spec.split(";")],
                                 name=name)


# -- the distinct family ------------------------------------------------------

def test_a5_family_dedups_shared_unions():
    fam = distinct_tilde_family(alternating_group(5))
    assert len(fam) == 2
    assert sorted(fam.densities) == [Fraction(3, 5), Fraction(2, 3)]
    # two maximal classes share one union
    assert sorted(len(p) for p in fam.provenance) == [1, 2]


def test_densities_proper():
    for G in [mk("(1 2)", 2), symmetric_group(4), alternating_group(5)]:
        fam = distinct_tilde_family(G)
        assert all(d < 1 for d in fam.densities)
        assert len(fam) >= 1


def test_tilde_family_reads_back_the_maximal_classes(catalog, get_group):
    """On every catalog group of order <= 5040, the family read off the
    profile is the sorted distinct M-tilde class bitsets of the maximal
    classes, with their v and their labels grouped in column order."""
    checked = 0
    for entry in catalog:
        if entry.expected_order > 5040:
            continue
        G = get_group(entry.name)
        maxes = maximal_subgroups(G)
        fam = tilde_family(build_profile(G))
        sets = sorted({m.mtilde_class_bits for m in maxes})
        sharing = [[m for m in maxes if m.mtilde_class_bits == s]
                   for s in sets]
        assert fam.sets == tuple(sets), entry.name
        for v, ms in zip(fam.densities, sharing):
            assert all(m.v == v for m in ms), entry.name
        assert fam.provenance == tuple(tuple(m.label for m in ms)
                                       for ms in sharing), entry.name
        assert fam.order == G.order
        checked += 1
    assert checked >= 30


def _s5_from_cycle_types():
    """S5's profile from its 7 cycle types alone, with no group: a class of
    type lambda has 120 / z_lambda elements, and a maximal class meets it
    when some member has that cycle type."""
    types = [(1, 1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2),
             (4, 1), (5,)]

    def size(t):
        z = 1
        for k in set(t):
            z *= k ** t.count(k) * math.factorial(t.count(k))
        return 120 // z

    meets = {"A5": lambda t: (5 - len(t)) % 2 == 0,
             "S4": lambda t: 1 in t,
             "S3xS2": lambda t: 2 in t or t.count(1) >= 2,
             "AGL(1,5)": lambda t: t in {(1, 1, 1, 1, 1), (2, 2, 1), (4, 1),
                                         (5,)}}
    columns = [sum(1 << r for r, t in enumerate(types) if meets[m](t))
               for m in meets]
    return profile_from_classes(
        120, [size(t) for t in types], [" ".join(map(str, t)) for t in types],
        columns, list(meets))


def test_s5_from_cycle_types():
    p = _s5_from_cycle_types()
    assert p.group is None
    assert p.class_sizes == (1, 10, 15, 20, 20, 30, 24)
    fam = tilde_family(p)
    assert chebotarev_exact(fam) == Fraction(14438407, 3333330)
    assert d_i_exact(p)[0] == 2
    engine = distinct_tilde_family(symmetric_group(5))
    assert chebotarev_exact(engine) == chebotarev_exact(fam)
    assert sorted(fam.densities) == sorted(engine.densities)
    for k in range(5):
        assert p_i_exact(fam, k) == p_i_exact(engine, k)


def test_profile_from_classes_checks_the_class_sizes():
    with pytest.raises(ValueError, match="sum to 3, not to the order 4"):
        profile_from_classes(4, [1, 2], ["1", "2"], [0b01], ["M"])
    with pytest.raises(ValueError, match="class sizes must be >= 1"):
        profile_from_classes(6, [1, -1, 6], "abc", [0b001], ["M"])


@pytest.mark.parametrize("class_labels, columns, column_labels, message", [
    ("abc", [0b1], [], "0 column labels for 1 columns"),
    ("ab", [0b011], ["M"], "2 class labels for 3 classes"),
    ("abc", [0b1011, 0b1], "MN", "not a bitset over 3 rows"),   # a 4th row
    ("abc", [-1], "M", "not a bitset over 3 rows"),
])
def test_profile_from_classes_checks_the_shape(class_labels, columns,
                                               column_labels, message):
    with pytest.raises(ValueError, match=message):
        profile_from_classes(6, [1, 2, 3], class_labels, columns,
                             column_labels)


# -- exact probabilities ------------------------------------------------------

def test_p_i_a5():
    fam = distinct_tilde_family(alternating_group(5))
    assert p_i_exact(fam, 0) == 0
    assert p_i_exact(fam, 1) == 0            # noncyclic: one element never works
    assert p_i_exact(fam, 2) == Fraction(4, 15)


def test_p_i_c2():
    fam = distinct_tilde_family(mk("(1 2)", 2))
    assert p_i_exact(fam, 1) == Fraction(1, 2)
    assert p_i_exact(fam, 3) == Fraction(7, 8)


def test_p_i_monotone_and_tends_to_one():
    for G in [alternating_group(5), symmetric_group(4), mk("(1 2);(3 4)", 4)]:
        fam = distinct_tilde_family(G)
        prev = Fraction(0)
        for k in range(0, 12):
            cur = p_i_exact(fam, k)
            assert cur >= prev
            prev = cur
        # geometric bound on the miss probability
        vmax = max(fam.densities)
        assert 1 - p_i_exact(fam, 64) <= len(fam.sets) * vmax ** 64 + \
            Fraction(1, 10**6)


def test_p_i_matches_exhaustive_oracle():
    for G in [symmetric_group(3), mk("(1 2);(3 4)", 4),
              mk("(1 2 3 4 5 6)", 6)]:
        fam = distinct_tilde_family(G)
        for k in range(0, 4):
            assert p_i_exact(fam, k) == exhaustive_p_i(G, k), (G.name, k)


def c2_power(n):
    return mk(";".join(f"({2 * i + 1} {2 * i + 2})" for i in range(n)), 2 * n,
              f"C2^{n}")


def test_chain_cap():
    # C2^7's chain has 29,212 states times 128 rows, past the 200,000 bound
    fam = distinct_tilde_family(c2_power(7))
    with pytest.raises(CapExceeded, match="200000 .*Monte Carlo"):
        p_i_exact(fam, 2)
    with pytest.raises(CapExceeded, match="200000 .*Monte Carlo"):
        chebotarev_partial_sum(fam, 2)


def test_p_i_exact_rejects_a_negative_k():
    fam = distinct_tilde_family(alternating_group(5))
    with pytest.raises(ValueError, match="k must be >= 0"):
        p_i_exact(fam, -1)


# -- the invariant itself -----------------------------------------------------

def test_chebotarev_exact_values():
    assert chebotarev_exact(distinct_tilde_family(mk("(1 2)", 2))) == 2
    assert chebotarev_exact(
        distinct_tilde_family(mk("(1 2);(3 4)", 4))) == Fraction(10, 3)
    assert chebotarev_exact(
        distinct_tilde_family(alternating_group(5))) == Fraction(91, 22)


def test_chebotarev_partial_sum_tail():
    for G in [mk("(1 2)", 2), alternating_group(5), symmetric_group(4)]:
        fam = distinct_tilde_family(G)
        c = chebotarev_exact(fam)
        partial, tail = chebotarev_partial_sum(fam, 50)
        assert abs(c - partial) <= tail
        assert tail < Fraction(1, 10**4)


def test_chebotarev_partial_sum_rejects_a_negative_bound():
    fam = distinct_tilde_family(alternating_group(5))
    assert chebotarev_partial_sum(fam, 0)[0] == 1
    with pytest.raises(ValueError, match="upto_k must be >= 0"):
        chebotarev_partial_sum(fam, -1)


def test_dedup_soundness():
    """Inclusion-exclusion over the raw per-class unions (no dedup) must
    give the identical rational."""
    for G in [alternating_group(5), symmetric_group(4)]:
        sets = [m.mtilde_class_bits for m in maximal_subgroups(G)]
        sizes = [c.size for c in conjugacy_classes(G).classes]
        assert inclusion_exclusion(sets, sizes, G.order)[0] == \
            chebotarev_exact(distinct_tilde_family(G))


def test_chain_matches_inclusion_exclusion(catalog, get_group):
    """The chain against the signed subset sums, for C(G) and P_I(G,k) with
    k = 0..8, on every catalog group of order <= 5040."""
    ks = range(9)
    checked = 0
    for entry in catalog:
        if entry.expected_order > 5040:
            continue
        G = get_group(entry.name)
        fam = distinct_tilde_family(G)
        c, p_i = inclusion_exclusion(fam.sets, fam.class_sizes, G.order, ks)
        assert chebotarev_exact(fam) == c, entry.name
        assert [p_i_exact(fam, k) for k in ks] == p_i, entry.name
        checked += 1
    assert checked >= 30


@pytest.mark.parametrize("n", range(1, 8))
def test_chain_on_elementary_abelian_2_groups(n):
    """In C2^n invariable generation is generation, so C(G) is the expected
    number of uniform vectors that span F_2^n, the sum over i < n of
    2^n/(2^n - 2^i), and P_I(G,k) is the product over i < n of
    1 - 2^i/2^k.  C2^6's chain walks 180,800 transitions, within the
    bound; C2^7's would walk 3.7 million, and is refused."""
    fam = distinct_tilde_family(c2_power(n))
    assert len(fam) == 2 ** n - 1
    if n == 7:
        with pytest.raises(CapExceeded, match="Monte Carlo"):
            chebotarev_exact(fam)
        return
    assert chebotarev_exact(fam) == \
        sum(Fraction(2 ** n, 2 ** n - 2 ** i) for i in range(n))
    for k in range(n, n + 3):
        want = math.prod(1 - Fraction(2 ** i, 2 ** k) for i in range(n))
        assert p_i_exact(fam, k) == want, k


# -- sandwich -----------------------------------------------------------------

def test_sandwich_a5_k2():
    rep = p_i_sandwich_check(alternating_group(5), 2)
    assert rep.max_v_pow_k == Fraction(4, 9)
    assert rep.miss_probability == Fraction(11, 15)
    assert rep.sum_v_pow_k == Fraction(262, 225)
    assert rep.lower_ok and rep.upper_ok


def test_sandwich_c2_tight():
    rep = p_i_sandwich_check(mk("(1 2)", 2), 3)
    assert rep.max_v_pow_k == rep.miss_probability == rep.sum_v_pow_k \
        == Fraction(1, 8)


def test_sandwich_sweep_small():
    for G in [symmetric_group(4), alternating_group(4), mk("(1 2 3 4 5 6)", 6),
              mk("(1 2 3 4 5);(2 3 5 4)", 5)]:
        for k in range(1, 9):
            rep = p_i_sandwich_check(G, k)
            assert rep.lower_ok and rep.upper_ok


def test_sandwich_checks_read_every_k_off_one_chain():
    G = symmetric_group(4)
    reps = p_i_sandwich_checks(G, 8)
    fam = distinct_tilde_family(G)
    assert [r.k for r in reps] == list(range(9))
    assert [r.miss_probability for r in reps] == [
        1 - p_i_exact(fam, k) for k in range(9)]
    assert reps[1:] == [p_i_sandwich_check(G, k) for k in range(1, 9)]
    with pytest.raises(ValueError, match="k must be >= 0"):
        p_i_sandwich_check(G, -1)


# -- Monte Carlo --------------------------------------------------------------

def test_mc_matches_exact_c2():
    G = mk("(1 2)", 2)
    est = chebotarev_mc(G, 10_000, seed=3)
    assert abs(est.mean - 2.0) <= 3 * est.std_error


def test_mc_matches_exact_a5():
    G = alternating_group(5)
    est = chebotarev_mc(G, 20_000, seed=7)
    assert abs(est.mean - 91 / 22) <= 3 * est.std_error


@pytest.mark.parametrize("name", ["S4", "A5", "AGL(1,7)", "A6 under S6"])
def test_mc_within_4se_of_exact(name, get_group):
    if name == "A6 under S6":
        G = get_group("A6")
        profile = build_profile(G, fusion=fuse_classes_under(
            G, symmetric_group(6)))
    else:
        G = get_group(name)
        profile = build_profile(G)
    # the exact C(G) for draws judged by the profile's (fused) rows
    c = chebotarev_exact(tilde_family(profile))
    est = chebotarev_mc(G, 20_000, seed=11, profile=profile)
    assert abs(est.mean - float(c)) <= 4 * est.std_error


def test_mc_raises_on_a_column_no_row_kills():
    # V4 fused under S4: every row meets all three maximal classes, so no
    # trial could ever stop
    V = mk("(1 2)(3 4);(1 3)(2 4)", 4)
    p = build_profile(V, fusion=fuse_classes_under(V, symmetric_group(4)))
    assert p.rows == (0b111, 0b111)
    with pytest.raises(ValueError, match="column 0 cannot be killed"):
        d_i_exact(p)
    with pytest.raises(ValueError, match="column 0 cannot be killed"):
        chebotarev_mc(V, 1, 1, profile=p)


def test_mc_checks_that_the_profile_describes_the_group():
    A5 = alternating_group(5)
    c2_squared_shape = profile_from_classes(4, [1, 1, 1, 1], "abcd",
                                            [0b0110, 0b1010, 0b1100], "xyz")
    full = build_profile(A5)
    columns = [sum(1 << r for r, row in enumerate(full.rows) if row >> j & 1)
               for j in range(full.num_columns)]
    sizes = list(full.class_sizes)
    swapped = profile_from_classes(60, sizes[:1] + sizes[:0:-1],
                                   full.class_labels, columns,
                                   full.column_labels)
    two_rows = profile_from_classes(60, [1, 59], "ab", [0b10], "x")
    bad = [c2_squared_shape, build_profile(symmetric_group(5)),
           build_profile(alternating_group(5)), swapped, two_rows]
    for p in bad:
        with pytest.raises(ValueError, match="does not describe A5"):
            chebotarev_mc(A5, 10, seed=1, profile=p)
    # A5's own class data, with no group, gives the same stream
    rebuilt = profile_from_classes(60, full.class_sizes, full.class_labels,
                                   columns, full.column_labels)
    assert (chebotarev_mc(A5, 500, seed=6, profile=rebuilt)
            == chebotarev_mc(A5, 500, seed=6, profile=full)
            == chebotarev_mc(A5, 500, seed=6))


def test_mc_bit_identical_reruns():
    G = alternating_group(5)
    assert chebotarev_mc(G, 2000, seed=42) == chebotarev_mc(G, 2000, seed=42)
    assert chebotarev_mc(G, 2000, seed=42) != chebotarev_mc(G, 2000, seed=43)


def test_mc_requires_positive_trials():
    with pytest.raises(ValueError):
        chebotarev_mc(alternating_group(5), 0, seed=1)


def test_mc_requires_nonnegative_seed():
    # Random seeds from |seed|: -1 would repeat seed 1's stream
    with pytest.raises(ValueError, match="seed must be >= 0"):
        chebotarev_mc(alternating_group(5), 10, seed=-1)


# -- ratio reports -------------------------------------------------------------

def test_ratio_report_c2():
    rep = theorem2_ratio_report(mk("(1 2)", 2, "C2"))
    assert rep.c_value == 2
    assert abs(rep.ratio_sqrt - math.sqrt(2)) < 1e-12


def test_ratio_report_sharply_two_transitive():
    for spec, deg, name in [("(1 2 3 4 5 6 7);(2 4 3 7 5 6)", 7, "AGL(1,7)"),
                            ("(1 2 3 4 5);(2 3 5 4)", 5, "AGL(1,5)")]:
        rep = theorem2_ratio_report(mk(spec, deg, name))
        assert 1.0 <= rep.ratio_sqrt <= 2.5


def test_ratio_report_falls_back_to_monte_carlo_past_the_chain_cap():
    G = c2_power(7)
    rep = theorem2_ratio_report(G)
    est = chebotarev_mc(G, 20_000, 1729)
    assert rep.c_value is None and rep.c_float == est.mean
    c = sum(Fraction(2 ** 7, 2 ** 7 - 2 ** i) for i in range(7))
    assert abs(rep.c_float - float(c)) <= 4 * est.std_error
    assert rep.ratio_sqrt == rep.c_float / math.sqrt(128)
