"""Exact structure of enumerable groups: quotients, chief series, class
fusion under an overgroup and nilpotency, with subgroups held as bitsets
over element indices.  It also re-exports the element table, conjugacy
classes and subgroup lattice (table.py) and the maximal classes (maximal.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .group import (CapExceeded, DEFAULT_ENUM_CAP, DEFAULT_LATTICE_CAP,
                    PermGroup)
from .maximal import MaximalClass, maximal_subgroups, v_of
from .perm import Perm
from .table import (ClassInfo, ConjugacyTable, GroupTable, SubgroupRecord,
                    conjugacy_classes, group_table, indices_of_bits,
                    small_generating_indices, subgroup_lattice)


# ---------------------------------------------------------------------------
# normal subgroups


def normal_closure_bits(tab: GroupTable, seed_indices: Sequence[int]) -> int:
    """Bitset of the normal closure of the given elements."""
    gens = list(dict.fromkeys(seed_indices))
    while True:
        members = tab.closure(gens)
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


def is_normal_bits(tab: GroupTable, bits: int, gen_indices: Sequence[int]) -> bool:
    for m in tab.conj_maps():
        for g in gen_indices:
            if not (bits >> m[g]) & 1:
                return False
    return True


# ---------------------------------------------------------------------------
# quotients and chief series


def quotient_group(G: PermGroup, N: SubgroupRecord,
                   cap: int = DEFAULT_ENUM_CAP) -> PermGroup:
    """G/N as a permutation group on the cosets of N (least-member order)."""
    tab = group_table(G, cap=cap)
    gen_idx = list(N.gen_indices) or [tab.identity_index]
    if not is_normal_bits(tab, N.bits, gen_idx):
        raise ValueError("subgroup is not normal")
    m = G.order // N.order
    if m > cap:
        raise CapExceeded(f"index {m} exceeds cap {cap}")
    n_members = indices_of_bits(N.bits)
    coset_of = [-1] * tab.n
    coset_reps: list[int] = []
    for x in range(tab.n):
        if coset_of[x] >= 0:
            continue
        cid = len(coset_reps)
        coset_reps.append(x)
        px = tab.elements[x]
        for nn in n_members:
            coset_of[tab.index[(tab.elements[nn] * px).images]] = cid
    gens = []
    for g in G.generators or [G.identity()]:
        images = []
        for rep in coset_reps:
            images.append(coset_of[tab.index[(tab.elements[rep] * g).images]] + 1)
        gens.append(Perm(images))
    Q = PermGroup(gens, name=f"{G.name or 'G'}/N{N.order}")
    assert Q.order == m, "coset action has wrong order"
    return Q


def minimal_normal_subgroups(G: PermGroup, cap: int = DEFAULT_ENUM_CAP
                             ) -> list[SubgroupRecord]:
    """Inclusion-minimal nontrivial normal subgroups, canonically ordered.

    Found as normal closures of single conjugacy classes; every minimal
    normal subgroup is the closure of any of its nonidentity elements.
    """
    tab = group_table(G, cap=cap)
    ct = conjugacy_classes(G, cap=cap)
    closures: dict[int, int] = {}
    for c in ct.classes[1:]:
        bits = normal_closure_bits(tab, [c.rep_index])
        closures[bits] = bits.bit_count()
    minimal = []
    for bits, order in closures.items():
        if not any(other != bits and bits | other == bits for other in closures):
            minimal.append((order, bits))
    minimal.sort()
    out = []
    for order, bits in minimal:
        gens = small_generating_indices(tab, indices_of_bits(bits))
        out.append(SubgroupRecord(bits=bits, order=order, gen_indices=tuple(gens)))
    return out


@dataclass(frozen=True)
class ChiefFactor:
    order: int
    abelian: bool
    description: str


@dataclass(frozen=True)
class ChiefSeries:
    factors: tuple            # ChiefFactor, socle end first
    a: int                    # abelian factor count
    b: int                    # non-abelian factor count


def _is_abelian_subgroup(tab: GroupTable, gen_indices: Sequence[int]) -> bool:
    for i, g in enumerate(gen_indices):
        for h in gen_indices[i + 1:]:
            if tab.mult(g, h) != tab.mult(h, g):
                return False
    return True


def chief_series(G: PermGroup, cap: int = DEFAULT_ENUM_CAP) -> ChiefSeries:
    """A chief series of G, built by repeatedly factoring out the canonical
    least minimal normal subgroup.  The multiset of (order, abelian) pairs
    is an invariant of G even though the series itself is a choice."""
    group_table(G, cap=cap)       # raises past the cap, cached series or not
    cached = G._cache.get("chief")
    if cached is not None:
        return cached
    factors: list[ChiefFactor] = []
    current = G
    while current.order > 1:
        tab = group_table(current, cap=cap)
        N = minimal_normal_subgroups(current, cap=cap)[0]
        abelian = _is_abelian_subgroup(tab, N.gen_indices or (tab.identity_index,))
        kind = "abelian" if abelian else "non-abelian"
        factors.append(ChiefFactor(order=N.order, abelian=abelian,
                                   description=f"{kind} chief factor of order {N.order}"))
        if N.order == current.order:
            break
        current = quotient_group(current, N, cap=cap)
    a = sum(1 for f in factors if f.abelian)
    b = len(factors) - a
    series = ChiefSeries(factors=tuple(factors), a=a, b=b)
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
    for a in A.generators:
        for g in G.generators:
            if not G.contains(g.conjugate(a)):
                raise ValueError("G is not normal in A")
    ct = conjugacy_classes(G)
    k = len(ct.classes)
    # class-index action of each A-generator
    maps = []
    for a in A.generators or [A.identity()]:
        maps.append([ct.class_of_element(c.rep.conjugate(a)) for c in ct.classes])
    fused_of = [-1] * k
    fused: list[tuple] = []
    for start in range(k):
        if fused_of[start] >= 0:
            continue
        fid = len(fused)
        orbit = [start]
        fused_of[start] = fid
        i = 0
        while i < len(orbit):
            x = orbit[i]
            i += 1
            for m in maps:
                y = m[x]
                if fused_of[y] < 0:
                    fused_of[y] = fid
                    orbit.append(y)
        fused.append(tuple(sorted(orbit)))
    return FusionMap(group=G, overgroup=A, fused_class_of=fused_of,
                     fused_classes=fused)


# ---------------------------------------------------------------------------
# nilpotency


def is_nilpotent(G: PermGroup, cap: int = DEFAULT_LATTICE_CAP) -> bool:
    """Nilpotent iff every maximal subgroup is normal, i.e. every maximal
    class has class size 1."""
    return all(mc.class_size == 1 for mc in maximal_subgroups(G, cap=cap))
