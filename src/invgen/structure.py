"""Exact structure of enumerable groups: normal closures, the chief
series, class fusion under an overgroup and nilpotency, with subgroups held
as bitsets over element indices.  Every chief factor is read off G's own
element table as a pair of normal subgroups N < M, with no quotient group
built.  It also re-exports the element table, conjugacy classes and
subgroup lattice (table.py) and the maximal classes (maximal.py).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .group import CapExceeded, DEFAULT_LATTICE_CAP, PermGroup
from .maximal import MaximalClass, maximal_subgroups
from .table import (ClassInfo, ConjugacyTable, GroupTable, SubgroupRecord,
                    conjugacy_classes, group_table, indices_of_bits,
                    largest_proper_divisor, orbits, prime_of_power,
                    small_generating_indices, subgroup_lattice)


# ---------------------------------------------------------------------------
# normal subgroups


def normal_closure_bits(tab: GroupTable, seed_indices: Sequence[int]) -> int:
    """Bitset of the normal closure of the given elements.  A closure past
    the largest proper divisor of |G| is G, so it stops there."""
    bound = largest_proper_divisor(tab.n)
    gens = list(dict.fromkeys(seed_indices))
    while True:
        members = tab.closure(gens, bound=bound)
        if members is None:
            return (1 << tab.n) - 1
        member_set = set(members)
        new = []
        for m in tab.conj_maps():
            for g in gens:
                c = m[g]
                if c not in member_set:
                    new.append(c)
        if not new:
            return tab.bits_of(members)
        gens.extend(dict.fromkeys(new))


def normalizes(A: PermGroup, G: PermGroup) -> bool:
    """Whether conjugation by each generator of A maps each generator of G
    into G, that is, whether A normalizes G."""
    return all(G.contains(g.conjugate(a))
               for a in A.generators for g in G.generators)


# ---------------------------------------------------------------------------
# chief series


_TRIVIAL = SubgroupRecord(bits=1, order=1, gen_indices=())   # identity is index 0


def _minimal_normal_over(tab: GroupTable, below: SubgroupRecord) -> list[int]:
    """The bitsets of the normal subgroups of G minimal over the normal
    subgroup N = `below`, least (order, bits) first.

    Found as the inclusion-minimal normal closures of N and one class
    representative x outside N whose order is a power of a prime p, with
    x^p in N (for N = 1, the elements of prime order).  Each such closure
    is normal and properly contains N, so it contains a minimal M.  And
    each minimal M is such a closure: M/N holds a coset yN of prime order
    p; with |y| = p^a m, p not dividing m, x = y^m lies in M, has p-power
    order and x^p in N, and xN = (yN)^m has order p, so x is outside N.
    The closure of N and x lies in M and properly contains N, so it is M.
    Conjugates of x pass the same test and have the same closure.
    """
    ct = conjugacy_classes(tab.group)
    closures = set()
    for c in ct.classes[1:]:
        x, p = c.rep_index, prime_of_power(c.element_order)
        if (p and not (below.bits >> x) & 1
                and (below.bits >> functools.reduce(tab.mult, [x] * p)) & 1):
            closures.add(normal_closure_bits(tab, [*below.gen_indices, x]))
    return sorted(
        (bits for bits in closures if not any(
            other != bits and bits | other == bits for other in closures)),
        key=lambda bits: (bits.bit_count(), bits))


def _record(tab: GroupTable, bits: int) -> SubgroupRecord:
    """The record of the subgroup with these member bits."""
    return SubgroupRecord(bits=bits, order=bits.bit_count(), gen_indices=tuple(
        small_generating_indices(tab, indices_of_bits(bits))))


def minimal_normal_subgroups(G: PermGroup) -> list[SubgroupRecord]:
    """Inclusion-minimal nontrivial normal subgroups, canonically ordered:
    the normal closures of the classes of prime-order elements that are
    minimal."""
    tab = group_table(G)
    return [_record(tab, bits) for bits in _minimal_normal_over(tab, _TRIVIAL)]


@dataclass(frozen=True)
class ChiefFactor:
    order: int
    abelian: bool


@dataclass(frozen=True)
class ChiefSeries:
    factors: tuple            # ChiefFactor, socle end first
    a: int                    # abelian factor count
    b: int                    # non-abelian factor count


def chief_series(G: PermGroup) -> ChiefSeries:
    """A chief series 1 = N_0 < N_1 < ... < N_r = G of normal subgroups of
    G, each N_i the least (order, bits) one minimal over N_(i-1), all in
    G's own element table.  N_i/N_(i-1) is abelian when every commutator
    of N_i's generators lies in N_(i-1).  The multiset of (order, abelian)
    pairs is an invariant of G even though the series itself is a choice."""
    cached = G._cache.get("chief")
    if cached is not None:
        return cached
    tab = group_table(G)
    factors: list[ChiefFactor] = []
    N = _TRIVIAL
    while N.order < tab.n:
        M = _record(tab, _minimal_normal_over(tab, N)[0])
        gens = M.gen_indices       # [g, h] = (hg)^-1 gh
        abelian = all((N.bits >> tab.mult(tab.inv(tab.mult(h, g)),
                                          tab.mult(g, h))) & 1
                      for i, g in enumerate(gens) for h in gens[i + 1:])
        factors.append(ChiefFactor(order=M.order // N.order, abelian=abelian))
        N = M
    a = sum(1 for f in factors if f.abelian)
    series = ChiefSeries(factors=tuple(factors), a=a, b=len(factors) - a)
    G._cache["chief"] = series
    return series


# ---------------------------------------------------------------------------
# fusion under an overgroup


@dataclass
class FusionMap:
    group: PermGroup
    overgroup: PermGroup
    fused_class_of: list[int]          # G-class index -> fused class index
    fused_classes: list[tuple]         # per fused class: tuple of G-class indices

    @property
    def num_fused(self) -> int:
        return len(self.fused_classes)


def fuse_classes_under(G: PermGroup, A: PermGroup) -> FusionMap:
    """Merge G-classes into orbits of conjugation by the overgroup A.

    Requires G normal in A (checked); conjugation by A then permutes
    G-classes and the orbits are the fused classes.
    """
    if A.degree != G.degree:
        raise ValueError("overgroup degree mismatch")
    for g in G.generators:
        if not A.contains(g):
            raise ValueError("G is not a subgroup of A")
    if not normalizes(A, G):
        raise ValueError("G is not normal in A")
    ct = conjugacy_classes(G)
    k = len(ct.classes)
    # per class, the classes of its rep's conjugates by the A-generators
    images = [[ct.class_of_element(c.rep.conjugate(a))
               for a in A.generators or [A.identity()]] for c in ct.classes]
    fused = [tuple(sorted(o)) for o in orbits(range(k), images.__getitem__)]
    fid_of = {ci: fid for fid, members in enumerate(fused) for ci in members}
    return FusionMap(group=G, overgroup=A,
                     fused_class_of=[fid_of[ci] for ci in range(k)],
                     fused_classes=fused)


# ---------------------------------------------------------------------------
# nilpotency


def is_nilpotent(G: PermGroup, cap: int = DEFAULT_LATTICE_CAP) -> bool:
    """Nilpotent iff every maximal subgroup is normal, i.e. every maximal
    class has class size 1."""
    return all(mc.class_size == 1 for mc in maximal_subgroups(G, cap=cap))
