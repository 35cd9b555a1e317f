"""Explicit constructions and the group catalog.

Covers the alternating-group generating pairs, the generation criterion
for direct powers of a simple group, the orbit-counting lower bound that
separates d from d_I on powers, large-class checks for simple groups, and
the almost-simple example whose fixed-point-free elements all sit in the
socle.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from .generation import build_profile, invariably_generates
from .group import (DEFAULT_LATTICE_CAP, PermGroup, embed_tuple, generates,
                    group_from_generators, power_group, symmetric_group)
from .maximal import _orbit_bits, maximal_subgroups
from .perm import Perm, parse_cycles
from .structure import normal_closure_bits, normalizes
from .table import _ClassRec, conjugacy_classes, group_table, orbits


# ---------------------------------------------------------------------------
# alternating pairs


def _least_prime(candidates) -> Optional[int]:
    for p in candidates:
        if p < 2:
            continue
        if all(p % d for d in range(2, int(math.isqrt(p)) + 1)):
            return p
    return None


def _cycle_on(points: Sequence[int], n: int) -> Perm:
    images = list(range(1, n + 1))
    for a, b in zip(points, points[1:]):
        images[a - 1] = b
    images[points[-1] - 1] = points[0]
    return Perm(images)


def alternating_pair(n: int) -> tuple[Perm, Perm]:
    """A pair of even permutations that invariably generates A_n, twisted
    by the full symmetric group.

    Even n > 6: a 2-cycle times an (n-2)-cycle, and a p-cycle times an
    (n-p)-cycle for the least prime p <= n-3 not dividing n.  Odd n >= 7:
    an n-cycle and a p-cycle for the least odd prime p <= n-3 not dividing
    n.  n = 6: elements of orders 4 and 5.  n = 5 has no odd prime <= 2,
    so the pair (5-cycle, 3-cycle) is used and verified exactly.
    """
    if n < 5:
        raise ValueError("n must be >= 5")
    if n == 5:
        return (_cycle_on([1, 2, 3, 4, 5], 5), _cycle_on([1, 2, 3], 5))
    if n == 6:
        four_two = parse_cycles("(1 2 3 4)(5 6)", 6)   # order 4, even
        five = _cycle_on([1, 2, 3, 4, 5], 6)
        return (four_two, five)
    if n % 2 == 0:
        first = _cycle_on([1, 2], n) * _cycle_on(list(range(3, n + 1)), n)
        p = _least_prime(p for p in range(3, n - 2) if n % p)
        assert p is not None, "a usable prime always exists for n > 6"
        second = _cycle_on(list(range(1, p + 1)), n) * \
            _cycle_on(list(range(p + 1, n + 1)), n)
    else:
        first = _cycle_on(list(range(1, n + 1)), n)
        p = _least_prime(p for p in range(3, n - 2, 2) if n % p)
        assert p is not None
        second = _cycle_on(list(range(1, p + 1)), n)
    assert first.is_even() and second.is_even()
    return (first, second)


# ---------------------------------------------------------------------------
# generation criterion for direct powers


@dataclass(frozen=True)
class TupleMatrix:
    """An r x k array of elements of T; row i is the tuple s_i of T^k."""

    entries: tuple     # tuple of r rows, each a tuple of k Perms

    @property
    def r(self) -> int:
        return len(self.entries)

    @property
    def k(self) -> int:
        return len(self.entries[0])

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def rows_as_power_elements(self) -> list[Perm]:
        return [embed_tuple(row, self.k) for row in self.entries]


def _aut_related(c: Sequence[Perm], d: Sequence[Perm],
                 a_elements: Sequence[Perm]) -> bool:
    """Whether conjugation by some a maps column c to column d, entry by
    entry."""
    return any(all(x.conjugate(a) == y for x, y in zip(c, d))
               for a in a_elements)


def kl_criterion_check(T: PermGroup, A: PermGroup, M: TupleMatrix,
                       cross_check: bool = False) -> bool:
    """Do the rows of M generate the full direct power T^k?

    True iff (a) every column generates T and (b) no element of A (acting
    as automorphisms of T by conjugation) maps one column to another
    coordinatewise.  A must normalize T; for T = A_n (n != 6) taking
    A = S_n realizes every automorphism.  With cross_check, the verdict is
    also compared against the order of the row-generated subgroup of T^k.
    """
    for row in M.entries:
        for t in row:
            if not T.contains(t):
                raise ValueError("matrix entry outside T")
    if not normalizes(A, T):
        raise ValueError("A does not normalize T")
    cols = [M.column(j) for j in range(M.k)]
    ok = all(generates(col, T.order) for col in cols)
    if ok:
        a_elements = A.elements()
        ok = not any(_aut_related(c, d, a_elements)
                     for c, d in itertools.combinations(cols, 2))
    if cross_check:
        power = power_group(T, M.k)
        generated = PermGroup(M.rows_as_power_elements())
        assert ok == (generated.order == power.order), \
            "criterion disagrees with the direct order computation"
    return ok


def random_tuple_matrix(T: PermGroup, r: int, k: int,
                        rng: random.Random) -> TupleMatrix:
    return TupleMatrix(entries=tuple(
        tuple(T.random_element(rng) for _ in range(k)) for _ in range(r)))


def search_generating_matrix(T: PermGroup, A: PermGroup, r: int, k: int,
                             seed: int) -> Optional[TupleMatrix]:
    """Seeded random search for a matrix passing the generation criterion,
    or None after 200,000 sampled columns.

    Columns are sampled one at a time: a column is kept once it generates T
    and sits in an Aut-orbit distinct from every kept column (checked by
    exhausting A); a whole-matrix rejection loop would almost never pass
    the all-columns-generate condition for large k.  With r = 1 and T not
    cyclic (not abelian, or of exponent below |T|) it returns None at once.
    """
    gens = T.generators
    if r == 1 and not (all(g * h == h * g for g in gens for h in gens)
                       and math.lcm(*map(Perm.order, gens)) == T.order):
        return None
    rng = random.Random(seed)
    a_elements = A.elements()
    cols: list[tuple] = []
    for _ in range(200_000):
        if len(cols) == k:
            break
        cand = tuple(T.random_element(rng) for _ in range(r))
        if not generates(cand, T.order):
            continue
        if any(_aut_related(cand, col, a_elements) for col in cols):
            continue
        cols.append(cand)
    if len(cols) < k:
        return None
    return TupleMatrix(entries=tuple(
        tuple(cols[j][i] for j in range(k)) for i in range(r)))


def pigeonhole_bound(T: PermGroup, A: PermGroup, r: int) -> int:
    """Number of orbits of A on r-tuples of conjugacy classes of T
    (diagonal action on class vectors).

    If k exceeds this count, no r-element subset of the direct power T^k
    can invariably generate it: the projected class columns would have to
    lie in pairwise distinct orbits.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    ct = conjugacy_classes(T)
    if not normalizes(A, T):
        raise ValueError("A does not normalize T")
    maps = [[ct.class_of_element(c.rep.conjugate(a)) for c in ct.classes]
            for a in A.generators or [A.identity()]]
    return len(orbits(itertools.product(range(len(ct.classes)), repeat=r),
                      lambda t: [tuple(m[c] for c in t) for m in maps]))


# ---------------------------------------------------------------------------
# the catalog


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    degree: int
    generator_strings: tuple
    expected_order: int
    tags: tuple
    overgroup: Optional[str]

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags


def default_catalog_path() -> Path:
    return Path(str(resources.files("invgen").joinpath("catalog.txt")))


def load_catalog(path: Optional[Path] = None) -> list[CatalogEntry]:
    if path is None:
        path = default_catalog_path()
    entries = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) not in (5, 6):
            raise ValueError(f"malformed catalog line: {raw!r}")
        name, degree, gens, order, tags = parts[:5]
        over = parts[5] if len(parts) == 6 and parts[5] else None
        tag_tuple = tuple(t.strip() for t in tags.split(",")
                          if t.strip() and t.strip() != "-")
        entries.append(CatalogEntry(
            name=name, degree=int(degree),
            generator_strings=tuple(g.strip() for g in gens.split(";")),
            expected_order=int(order), tags=tag_tuple, overgroup=over))
    return entries


def instantiate(entry: CatalogEntry) -> PermGroup:
    gens = [parse_cycles(s, entry.degree) for s in entry.generator_strings]
    G = group_from_generators(gens, name=entry.name)
    if G.order != entry.expected_order:
        raise ValueError(
            f"catalog entry {entry.name}: order {G.order} != expected "
            f"{entry.expected_order} (corrupted catalog)")
    return G


def resolve_overgroup(entry: CatalogEntry,
                      catalog: Sequence[CatalogEntry]) -> PermGroup:
    """The entry's named overgroup as a group (see overgroup_by_name)."""
    if entry.overgroup is None:
        raise ValueError(f"{entry.name} has no overgroup in the catalog")
    return overgroup_by_name(entry.overgroup, catalog)


def overgroup_by_name(name: str, catalog: Sequence[CatalogEntry]
                      ) -> PermGroup:
    """An overgroup named as a catalog entry, or S<n> built on demand."""
    for other in catalog:
        if other.name == name:
            return instantiate(other)
    if name.startswith("S") and name[1:].isdigit():
        return symmetric_group(int(name[1:]))
    raise ValueError(f"unknown overgroup {name!r}")


def catalog_group(name: str, catalog: Optional[Sequence[CatalogEntry]] = None
                  ) -> PermGroup:
    entries = list(catalog) if catalog is not None else load_catalog()
    for e in entries:
        if e.name == name:
            return instantiate(e)
    raise KeyError(f"no catalog entry named {name!r}")


# ---------------------------------------------------------------------------
# large-class witness check for simple groups


@dataclass(frozen=True)
class LargeClassReport:
    group_name: str
    class_labels: tuple
    class_sizes: tuple
    threshold: float            # |G|^(2/3) / 2
    all_pass: bool


def theorem3c_check(G: PermGroup, witness_rows: tuple[int, int],
                    cap: int = DEFAULT_LATTICE_CAP) -> LargeClassReport:
    """Class sizes of an invariably generating pair against |G|^(2/3)/2.

    The witness must invariably generate (checked); intended for simple
    groups, where such large-class pairs exist once the group is big
    enough.
    """
    profile = build_profile(G, cap=cap)
    if not invariably_generates(profile, list(witness_rows)):
        raise ValueError("witness pair does not invariably generate")
    threshold = G.order ** (2 / 3) / 2
    sizes = tuple(profile.class_sizes[r] for r in witness_rows)
    return LargeClassReport(
        group_name=G.name or "G",
        class_labels=tuple(profile.class_labels[r] for r in witness_rows),
        class_sizes=sizes, threshold=threshold,
        all_pass=all(s > threshold for s in sizes))


def best_invgen_pair(G: PermGroup, cap: int = DEFAULT_LATTICE_CAP
                     ) -> Optional[tuple[int, int]]:
    """The invariably generating pair of rows maximizing the smaller class
    size, then the larger: the first such pair in row order, or None."""
    profile = build_profile(G, cap=cap)
    rows = range(len(profile.rows))
    pairs = itertools.combinations_with_replacement(rows, 2)
    return max((pair for pair in pairs
                if invariably_generates(profile, pair)),
               key=lambda pair: sorted(profile.class_sizes[r] for r in pair),
               default=None)


# ---------------------------------------------------------------------------
# the almost-simple lower-bound example


@dataclass(frozen=True)
class SocleExampleReport:
    group_name: str
    socle_order: int
    field_auto_order: int
    normalizer_order: int
    maximal_label: str
    maximal_order: int
    v: Fraction
    v_at_least_two_thirds: bool
    fpf_inside_socle: bool


def almost_simple_lower_example(G: PermGroup, cap: int = DEFAULT_LATTICE_CAP
                                ) -> SocleExampleReport:
    """Locate the maximal class above the normalizer of a field-automorphism
    subgroup of an almost-simple group with cyclic outer part of prime
    order b, and report its fixed-point density.

    Intended for the degree-9 almost-simple group of order 1512 (socle of
    order 504, b = 3): the located class has v >= 1 - 1/b and every
    fixed-point-free element of the coset action lies in the socle.
    """
    tab = group_table(G)
    ct = conjugacy_classes(G)
    # socle = last term of the derived series (here: the derived subgroup)
    socle_bits = _derived_subgroup_bits(G)
    socle_order = socle_bits.bit_count()
    b = G.order // socle_order
    # a field-automorphism generator: prime order b, outside the socle
    sigma_idx = next(i for i in range(tab.n)
                     if not (socle_bits >> i) & 1
                     and tab.elements[i].order() == b)
    sigma_cyclic = tab.closure([sigma_idx])
    norm = _ClassRec(tab, tuple(sigma_cyclic)).normalizer(tab)[0]
    norm_bits = tab.bits_of(norm)
    located = None
    for mc in maximal_subgroups(G, cap=cap):
        if any(norm_bits & m == norm_bits
               for m in _orbit_bits(tab, mc.member_indices())):
            located = mc
            break
    assert located is not None, "normalizer lies in some maximal subgroup"
    fpf_classes = [ci for ci in range(len(ct.classes))
                   if not (located.mtilde_class_bits >> ci) & 1]
    fpf_inside = all(ct.classes[ci].bits | socle_bits == socle_bits
                     for ci in fpf_classes)
    return SocleExampleReport(
        group_name=G.name or "G", socle_order=socle_order,
        field_auto_order=b, normalizer_order=len(norm),
        maximal_label=located.label, maximal_order=located.order,
        v=located.v, v_at_least_two_thirds=located.v >= Fraction(2, 3),
        fpf_inside_socle=fpf_inside)


def _derived_subgroup_bits(G: PermGroup) -> int:
    tab = group_table(G)
    gens = [tab.index[g.bytes] for g in G.generators]
    comms = []
    for i, g in enumerate(gens):
        for h in gens[i:]:
            comms.append(tab.mult(tab.mult(tab.inv(g), tab.inv(h)),
                                  tab.mult(g, h)))
    return normal_closure_bits(tab, comms)
