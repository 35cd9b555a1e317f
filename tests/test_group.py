import hashlib
import math
import random

import pytest

from invgen.group import (_IDENT, CapExceeded, PermGroup,
                          _order_lower_bound, alternating_group, embed_tuple,
                          generates, group_from_generators, power_group,
                          symmetric_group)
from invgen.perm import Perm, _fast_perm, parse_cycles

from oracles import naive_closure

# chi-square 0.999 quantile for 5 degrees of freedom (S3 uniformity test)
CHI2_CRIT_DF5_P999 = 20.5150


def mk(spec, deg, name=""):
    return group_from_generators([parse_cycles(s, deg) for s in spec.split(";")],
                                 name=name)


def test_order_matches_naive_closure_a5():
    gens = [parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(1 2 3)", 5)]
    G = group_from_generators(gens)
    assert G.order == 60 == len(naive_closure(gens))


def test_order_matches_naive_closure_s4():
    gens = [parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 2)", 4)]
    G = group_from_generators(gens)
    assert G.order == 24 == len(naive_closure(gens))


def test_trivial_group():
    G = group_from_generators([Perm.identity(3)])
    assert G.order == 1
    assert G.elements() == [Perm.identity(3)]


def test_generator_degree_mismatch():
    with pytest.raises(ValueError):
        group_from_generators([parse_cycles("(1 2)", 2),
                               parse_cycles("(1 2)", 3)])


def test_chain_rejects_another_degree():
    a5 = alternating_group(5)
    gens = [parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(1 2 3)", 6)]
    for check in (lambda: a5.contains(gens[1]), lambda: generates(gens, 60),
                  lambda: generates(gens[::-1], 60)):
        with pytest.raises(ValueError, match="degree mismatch"):
            check()


def test_membership():
    a5 = alternating_group(5)
    assert not a5.contains(parse_cycles("(1 2)", 5))
    assert a5.contains(parse_cycles("(1 2 3)", 5))
    s4 = symmetric_group(4)
    assert s4.contains(parse_cycles("(1 2 3 4)", 4))
    with pytest.raises(ValueError):
        a5.contains(parse_cycles("(1 2)", 4))


def test_closure_properties_random_products():
    G = mk("(1 2 3 4);(1 2)", 4)
    rng = random.Random(3)
    for _ in range(50):
        p = G.random_element(rng)
        q = G.random_element(rng)
        assert G.contains(p * q)
        assert G.contains(p.inverse())


def test_lagrange_over_enumerated_groups():
    for G in [mk("(1 2 3 4 5 6)", 6), alternating_group(5), symmetric_group(4)]:
        for p in G.elements():
            assert G.order % p.order() == 0


def test_enumeration_complete_and_duplicate_free():
    a5 = alternating_group(5)
    els = a5.elements()
    assert len(els) == 60 == len(set(els))
    c6 = mk("(1 2 3 4 5 6)", 6)
    assert len(c6.elements()) == 6


def test_enumeration_cap():
    a10 = alternating_group(10)
    with pytest.raises(CapExceeded, match="enumeration cap 200000"):
        a10.elements()


def test_random_element_trivial_group():
    G = group_from_generators([Perm.identity(2)])
    rng = random.Random(0)
    assert all(G.random_element(rng).is_identity() for _ in range(20))


def test_random_element_c2_frequency():
    G = mk("(1 2)", 2)
    rng = random.Random(11)
    hits = sum(not G.random_element(rng).is_identity() for _ in range(10_000))
    # within 4 sigma of 1/2
    assert abs(hits - 5000) <= 4 * math.sqrt(10_000 * 0.25)


def test_random_element_s3_chi_square():
    G = symmetric_group(3)
    rng = random.Random(2024)
    counts: dict[tuple, int] = {}
    n = 12_000
    for _ in range(n):
        key = G.random_element(rng).images
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    expected = n / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_CRIT_DF5_P999


def test_random_stream_determinism():
    G = alternating_group(6)
    r1, r2 = random.Random(99), random.Random(99)
    s1 = [G.random_element(r1) for _ in range(200)]
    s2 = [G.random_element(r2) for _ in range(200)]
    assert s1 == s2


def test_power_group_identity_case():
    a5 = alternating_group(5)
    p1 = power_group(a5, 1)
    assert p1.order == 60 and p1.degree == 5


def test_power_group_square():
    a5 = alternating_group(5)
    p2 = power_group(a5, 2)
    assert p2.degree == 10 and p2.order == 3600


def test_power_group_c2_cubed():
    c2 = mk("(1 2)", 2)
    p3 = power_group(c2, 3)
    assert p3.order == 8
    assert all(p.order() <= 2 for p in p3.elements())


def test_power_group_projections():
    a5 = alternating_group(5)
    rng = random.Random(8)
    ts = [a5.random_element(rng) for _ in range(3)]
    big = embed_tuple(ts, 3)
    assert power_group(a5, 3).contains(big)
    for i in range(3):
        block = big.images[5 * i:5 * i + 5]
        assert block == tuple(5 * i + pt for pt in ts[i].images)


def test_symmetric_alternating_orders():
    for n in range(2, 10):
        assert symmetric_group(n).order == math.factorial(n)
    for n in range(3, 10):
        assert alternating_group(n).order == math.factorial(n) // 2


# -- the degree bound ----------------------------------------------------------

def test_degree_256_cycle():
    c = Perm(list(range(2, 257)) + [1])
    G = PermGroup([c])
    assert G.order == 256
    assert G.contains(c ** 7) and not G.contains(parse_cycles("(1 2)", 256))
    rng = random.Random(256)
    assert all(G.contains(G.random_element(rng)) for _ in range(20))
    assert len(G.elements()) == 256 == len(set(G.elements()))
    assert generates([c], 256)
    assert not generates([c * c], 256)


def test_degree_past_256_raises():
    with pytest.raises(ValueError, match="degree 257 .* 256 points"):
        Perm(list(range(2, 258)) + [1])


# -- pinned stabilizer chains --------------------------------------------------

def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _chain_view(chain):
    """(base, orbit, transversal images) of each level, points 1-based.

    The chain stores only inverse transversal elements, as 0-based
    translation tables; each forward element is derived from its inverse.
    The pins below were recorded on a chain of 1-based Perms that stored
    both and must hold unchanged."""
    view = []
    for lv in chain.levels:
        forward = []
        for p in lv.orbit:
            table = lv.inv_transversal[p]
            assert table[chain.degree:] == _IDENT[chain.degree:]
            u = _fast_perm(table[:chain.degree])
            assert u(p + 1) == lv.base + 1
            forward.append(u.inverse().images)
        view.append((lv.base + 1, [p + 1 for p in lv.orbit], forward))
    return view


# name -> (bases, orbits or their digest, transversal digest, draws digest)
CHAIN_PINS = {
    "S4": ([1, 2, 3], [[1, 2, 3, 4], [2, 4, 3], [3, 4]],
           "72f75ed37f96a81e7bf1a59894397b5164af27109e31561ff12f806f3dc23fd1",
           "81ad4621b2aceb177496442073c92b3de207bd50ca7fc5c09cf8c1646c9fab3f"),
    "A5": ([1, 3, 2], [[1, 2, 3, 4, 5], [3, 4, 5, 2], [2, 4, 5]],
           "391f76faccf4ff4f8918b6b4da281e081139af809ef49a9d14eb0fe80121450c",
           "faed43a72035a6f7a77a0826792566a9057df55630a5e95d3cfcf259e45bb1e4"),
    "PSL(2,7)": (
        [1, 2, 3], [[1, 2, 8, 3, 7, 4, 6, 5], [2, 8, 7, 3, 4, 6, 5], [3, 7, 8]],
        "3d108f02de5b30d9a5c3c375f222c2abc388b4f7ee44f18a35df85c5451fd6e6",
        "2d77986e0447626c8a170116e570a59dd8ad6970b5560e5b05449f91faa7b973"),
    "AGL(1,13)": (
        [1, 2], [[1, 2, 3, 4, 5, 7, 6, 9, 8, 13, 11, 10, 12],
                 [2, 3, 5, 9, 4, 7, 13, 12, 10, 6, 11, 8]],
        "542c198aefffd3e69de8a378f2697ff87d5a507d9c51684161f891f8db773872",
        "46890bc1379dfa1b712f3a3b681e61676ff98a839d64af9715b96068c08d5af2"),
    "A9": (
        [1, 3, 2, 4, 7, 6, 5],
        "a27c59452e5cc77763eeafba55ddc868f7293aaf953de61f587e17f4d18b45b1",
        "230c3dad5f72bd562227f7f965f3b3e0445ee6f8a97152d76867a187ab305fe4",
        "99317f2ad342a4656216ee37d707e7c802f0dc2dd8fb9bc9874d4d5284faedfc"),
    "A5^3": (
        [1, 3, 2, 6, 8, 7, 11, 13, 12],
        "aafa419c15962408008894b73811108674149937e06fae44e1f90705a7aaa5e2",
        "2400a67f5d2dec5f5af78433294ef232cae24b404dc603ad6b17995d2954536e",
        "3ea9d78754ffb560689a7c492c64a2fb02adee6f7a1be38cdac3b358429a7741"),
}


def _pinned_group(name, get_group):
    if name == "A9":
        return alternating_group(9)
    if name == "A5^3":
        return power_group(alternating_group(5), 3)
    return get_group(name)


@pytest.mark.parametrize("name", list(CHAIN_PINS))
def test_pinned_chain(name, get_group):
    """Bases, orbit order, transversal elements and the random_element
    stream of the deterministic Schreier-Sims chain."""
    G = _pinned_group(name, get_group)
    bases, orbits, transversals, draws = CHAIN_PINS[name]
    view = _chain_view(G.chain)
    assert [b for b, _, _ in view] == bases
    got_orbits = [o for _, o, _ in view]
    assert (got_orbits if isinstance(orbits, list)
            else _digest(got_orbits)) == orbits
    assert _digest([t for _, _, t in view]) == transversals
    rng = random.Random(7)
    assert _digest([G.random_element(rng).images
                    for _ in range(20)]) == draws


def _lower_bounds(G, rng, subsets):
    """_order_lower_bound on seeded 1-3-element subsets of G, bounded by
    |G| - 1 (as generates does) and by |G| // p for each prime p dividing
    |G| (as the interval search does)."""
    primes = [p for p in range(2, G.degree + 1)
              if G.order % p == 0 and all(p % q for q in range(2, p))]
    out = []
    for _ in range(subsets):
        gens = [G.random_element(rng) for _ in range(rng.randint(1, 3))]
        out.append(_order_lower_bound(gens, G.order - 1))
        out.extend(_order_lower_bound(gens, G.order // p) for p in primes)
    return out


@pytest.mark.parametrize("n, pin", [
    (9, "ca2d74edf6c1f786ae2bc01ad707996ef7fff1bc161e65bbdbe4a46f079d2245"),
    (10, "28050a7c2260fcf2f631ab140337ba2b2d58208ef86735c2aa327efa9852fd53"),
    (11, "18847d8f5fc8bfbc9d58d2d72d7b2c9560d521e8dc202d397d2f807e27735242"),
    (12, "07ac03f629a577714223190c3bebee394e87df9604ec3aad2e4506dbdac6526f"),
])
def test_pinned_order_lower_bound_alternating(n, pin):
    G = alternating_group(n)
    bounds = _lower_bounds(G, random.Random(f"lower bound A{n}"), 12)
    assert all(1 <= b <= G.order for b in bounds)
    assert _digest(bounds) == pin


def test_pinned_order_lower_bound_catalog(catalog, get_group):
    bounds = [_lower_bounds(get_group(e.name),
                            random.Random(f"lower bound {e.name}"), 6)
              for e in catalog]
    assert _digest(bounds) == ("ec168aededb9b5199bf85f93b2fcf44b"
                               "4edbf176f84526314bf5c65ee54fde08")
