"""Exact structure of enumerable groups: quotients, chief series, class
fusion under an overgroup and nilpotency, with subgroups held as bitsets
over element indices.  It also re-exports the element table, conjugacy
classes and subgroup lattice (table.py) and the maximal classes (maximal.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .group import CapExceeded, DEFAULT_LATTICE_CAP, PermGroup
from .maximal import MaximalClass, maximal_subgroups
from .perm import Perm, _IDENT
from .table import (ClassInfo, ConjugacyTable, GroupTable, SubgroupRecord,
                    conjugacy_classes, group_table, indices_of_bits,
                    largest_proper_divisor, orbits, small_generating_indices,
                    subgroup_lattice)


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


def is_normal_bits(tab: GroupTable, bits: int, gen_indices: Sequence[int]) -> bool:
    for m in tab.conj_maps():
        for g in gen_indices:
            if not (bits >> m[g]) & 1:
                return False
    return True


# ---------------------------------------------------------------------------
# quotients and chief series


def quotient_group(G: PermGroup, N: SubgroupRecord) -> PermGroup:
    """G/N as a permutation group on the cosets of N (least-member order).
    More cosets than a Perm has points raises CapExceeded."""
    tab = group_table(G)
    gen_idx = list(N.gen_indices) or [tab.identity_index]
    if not is_normal_bits(tab, N.bits, gen_idx):
        raise ValueError("subgroup is not normal")
    m = G.order // N.order
    if m > len(_IDENT):
        raise CapExceeded(f"G/N acts on {m} cosets, past the stabilizer "
                          f"chain's bound of {len(_IDENT)} points")
    n_members = indices_of_bits(N.bits)
    coset_of = [-1] * tab.n
    coset_reps: list[int] = []
    for x in range(tab.n):
        if coset_of[x] >= 0:
            continue
        cid = len(coset_reps)
        coset_reps.append(x)
        for nn in n_members:
            coset_of[tab.mult(nn, x)] = cid
    gens = [Perm(coset_of[tab.mult(rep, tab.index[g.bytes])] + 1
                 for rep in coset_reps) for g in tab.generators]
    Q = PermGroup(gens, name=f"{G.name or 'G'}/N{N.order}")
    assert Q.order == m, "coset action has wrong order"
    return Q


def minimal_normal_subgroups(G: PermGroup) -> list[SubgroupRecord]:
    """Inclusion-minimal nontrivial normal subgroups, canonically ordered.

    Found as normal closures of the classes of prime-order elements: every
    minimal normal subgroup is the closure of any of its nonidentity
    elements, and it holds one of prime order.
    """
    tab = group_table(G)
    ct = conjugacy_classes(G)
    closures = {normal_closure_bits(tab, [c.rep_index]) for c in ct.classes[1:]
                if largest_proper_divisor(c.element_order) == 1}  # prime order
    minimal = sorted(
        (bits.bit_count(), bits) for bits in closures
        if not any(other != bits and bits | other == bits for other in closures))
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


def chief_series(G: PermGroup) -> ChiefSeries:
    """A chief series of G, built by repeatedly factoring out the canonical
    least minimal normal subgroup.  The multiset of (order, abelian) pairs
    is an invariant of G even though the series itself is a choice."""
    cached = G._cache.get("chief")
    if cached is not None:
        return cached
    factors: list[ChiefFactor] = []
    current = G
    while current.order > 1:
        tab = group_table(current)
        N = minimal_normal_subgroups(current)[0]
        abelian = _is_abelian_subgroup(tab, N.gen_indices or (tab.identity_index,))
        kind = "abelian" if abelian else "non-abelian"
        factors.append(ChiefFactor(order=N.order, abelian=abelian,
                                   description=f"{kind} chief factor of order {N.order}"))
        if N.order == current.order:
            break
        current = quotient_group(current, N)
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
