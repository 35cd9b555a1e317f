import math
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


@pytest.mark.parametrize("text", ["(1_2 3)", "(+1 2)", "(\u0661 2)",
                                  "(1 \u00b2)", "(-1 2)", "(1.0 2)"])
def test_parse_accepts_only_ascii_digits(text):
    # int() would read these as (12 3), (1 2), (1 2), ...
    with pytest.raises(ValueError, match="malformed cycle notation"):
        parse_cycles(text, 12)


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


# -- every operation against 1-based image-tuple arithmetic --------------------

def _compose(a: tuple, b: tuple) -> tuple:
    """a, then b."""
    return tuple(b[i - 1] for i in a)


def _invert(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, j in enumerate(a, 1):
        out[j - 1] = i
    return tuple(out)


def _power(a: tuple, e: int) -> tuple:
    base = a if e >= 0 else _invert(a)
    out = tuple(range(1, len(a) + 1))
    for _ in range(abs(e)):
        out = _compose(out, base)
    return out


def _cycles(a: tuple) -> list:
    seen, out = set(), []
    for start in range(1, len(a) + 1):
        if start in seen or a[start - 1] == start:
            continue
        cyc, j = [], start
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = a[j - 1]
        out.append(tuple(cyc))
    return out


def _is_even(a: tuple) -> bool:
    inversions = sum(a[i] > a[j] for i in range(len(a))
                     for j in range(i + 1, len(a)))
    return inversions % 2 == 0


def _samples(degree: int, rng: random.Random) -> list:
    points = list(range(1, degree + 1))
    out = [tuple(points), tuple(points[1:] + points[:1])]
    if degree > 1:
        out.append((2, 1) + tuple(points[2:]))
    out += [tuple(rng.sample(points, degree)) for _ in range(6)]
    return out


@pytest.mark.parametrize("degree", [1, 2, 14, 90, 256])
def test_every_operation_matches_image_tuples(degree):
    rng = random.Random(f"perm oracle {degree}")
    tuples = _samples(degree, rng)
    perms = [Perm(t) for t in tuples]
    ident = tuple(range(1, degree + 1))
    assert Perm.identity(degree).images == ident
    assert Perm.identity(degree).is_identity()
    assert Perm.identity(degree).degree == degree
    for a, p in zip(tuples, perms):
        assert p.images == a and p.degree == degree
        assert [p(i) for i in ident] == list(a)
        assert p.inverse().images == _invert(a)
        assert p.is_identity() == (a == ident)
        assert p.cycles() == _cycles(a)
        assert p.order() == math.lcm(*map(len, _cycles(a)))
        assert p.is_even() == _is_even(a)
        for e in (-3, -1, 0, 1, 2, 5, rng.randint(-300, 300)):
            assert (p ** e).images == _power(a, e), e
        for b, q in zip(tuples, perms):
            assert (p * q).images == _compose(a, b)
            assert p.conjugate(q).images == _compose(
                _compose(_invert(b), a), b)
            assert (p == q) == (a == b)
            assert (p != q) == (a != b)
            assert (p < q) == (a < b)
            if a == b:
                assert hash(p) == hash(q) == hash(Perm(b))
    assert sorted(perms) == [Perm(t) for t in sorted(tuples)]
