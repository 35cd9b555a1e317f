import random

import pytest

from invgen.perm import Perm, format_cycles, parse_cycles


def test_parse_basic():
    p = parse_cycles("(1 2 3)(4 5)", 5)
    assert p.images == (2, 3, 1, 5, 4)
    assert p(1) == 2 and p(3) == 1 and p(4) == 5


def test_parse_identity():
    p = parse_cycles("()", 4)
    assert p.is_identity()
    assert p.degree == 4


def test_parse_fixes_absent_points():
    p = parse_cycles("(2 3)", 5)
    assert p(1) == 1 and p(4) == 4 and p(5) == 5


def test_parse_roundtrip():
    for text, deg in [("(1 2 3)(4 5)", 5), ("(2 4)", 4), ("()", 3),
                      ("(1 5)(2 4)", 6)]:
        p = parse_cycles(text, deg)
        assert parse_cycles(format_cycles(p), deg) == p


def test_parse_repeated_point_rejected():
    with pytest.raises(ValueError, match="repeated"):
        parse_cycles("(1 2)(2 3)", 3)
    with pytest.raises(ValueError, match="repeated"):
        parse_cycles("(1 2 1)", 3)


def test_parse_out_of_range():
    with pytest.raises(ValueError, match="range"):
        parse_cycles("(1 4)", 3)


def test_parse_malformed():
    with pytest.raises(ValueError):
        parse_cycles("(1 2", 3)
    with pytest.raises(ValueError):
        parse_cycles("1 2 3", 3)
    with pytest.raises(ValueError):
        parse_cycles("", 3)


def test_compose_involution():
    t = parse_cycles("(1 2)", 2)
    assert (t * t).is_identity()


def test_compose_order_convention():
    # left-to-right: (p * q)(x) = q(p(x))
    p = parse_cycles("(1 2)", 3)
    q = parse_cycles("(2 3)", 3)
    assert (p * q)(1) == 3


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        parse_cycles("(1 2)", 2) * parse_cycles("(1 2)", 3)


def test_inverse_of_three_cycle():
    c = parse_cycles("(1 2 3)", 3)
    assert c.inverse() == parse_cycles("(1 3 2)", 3)
    assert (c * c.inverse()).is_identity()


def test_power():
    c = parse_cycles("(1 2 3 4 5)", 5)
    assert c ** 5 == Perm.identity(5)
    assert c ** -1 == c.inverse()
    assert c ** 7 == c ** 2


def test_element_order_lcm():
    p = parse_cycles("(1 2)(3 4 5)", 5)
    assert p.order() == 6
    assert Perm.identity(4).order() == 1


def test_parity():
    assert parse_cycles("(1 2 3)", 3).is_even()
    assert not parse_cycles("(1 2)", 2).is_even()
    assert parse_cycles("(1 2)(3 4)", 4).is_even()


def test_conjugate():
    p = parse_cycles("(1 2 3)", 4)
    g = parse_cycles("(3 4)", 4)
    assert p.conjugate(g) == parse_cycles("(1 2 4)", 4)
    rng = random.Random(7)
    points = list(range(1, 8))
    for _ in range(200):
        x = Perm(rng.sample(points, 7))
        g = Perm(rng.sample(points, 7))
        assert x.conjugate(g) == g.inverse() * x * g


def test_not_a_bijection_rejected():
    with pytest.raises(ValueError):
        Perm([1, 1, 3])
    with pytest.raises(ValueError):
        Perm([])


def test_perm_ordering_and_hash():
    a = parse_cycles("(1 2)", 3)
    b = parse_cycles("(1 3)", 3)
    assert a != b and (a < b or b < a)
    assert len({a, b, parse_cycles("(1 2)", 3)}) == 2
