"""The element table of an enumerable group, and what is read off it
directly: conjugacy classes and the full subgroup lattice.  Elements are
numbered in sorted order (identity 0); records hold bitsets over these
indices, in a fixed canonical order so reports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .group import (CapExceeded, DEFAULT_ENUM_CAP, DEFAULT_LATTICE_CAP,
                    PermGroup)
from .perm import Perm, format_cycles


# ---------------------------------------------------------------------------
# element table machinery


class GroupTable:
    """Element table of a group with index-level multiplication and
    per-generator conjugation maps."""

    def __init__(self, group: PermGroup, cap: int = DEFAULT_ENUM_CAP):
        self.group = group
        self.elements = group.elements(cap=cap)
        self.index = {p.images: i for i, p in enumerate(self.elements)}
        self.n = len(self.elements)
        self.identity_index = 0   # identity is lexicographically least
        self._conj_maps: Optional[list[list[int]]] = None
        self._inv_map: Optional[list[int]] = None
        self._elem_conj_maps: dict[int, list[int]] = {}

    def mult(self, i: int, j: int) -> int:
        return self.index[(self.elements[i] * self.elements[j]).images]

    def inv(self, i: int) -> int:
        if self._inv_map is None:
            self._inv_map = [self.index[p.inverse().images] for p in self.elements]
        return self._inv_map[i]

    def conj_maps(self) -> list[list[int]]:
        """For each group generator g, the index map i -> index(e_i ^ g)."""
        if self._conj_maps is None:
            gens = self.group.generators or [self.group.identity()]
            self._conj_maps = [self.elem_conj_map(self.index[g.images])
                               for g in gens]
        return self._conj_maps

    def elem_conj_map(self, gi: int) -> list[int]:
        """Index map of conjugation by element gi, cached.

        Built without composing permutations: the image tuple of x^g
        satisfies y[g(i)] = g(x(i)), one dict lookup per element.
        """
        cached = self._elem_conj_maps.get(gi)
        if cached is not None:
            return cached
        g = self.elements[gi].images
        index = self.index
        out = [0] * self.n
        y = [0] * len(g)
        for xi, x in enumerate(self.elements):
            xim = x.images
            for i in range(len(g)):
                y[g[i] - 1] = g[xim[i] - 1]
            out[xi] = index[tuple(y)]
        self._elem_conj_maps[gi] = out
        return out

    def closure(self, gen_indices: Sequence[int], bound: Optional[int] = None
                ) -> Optional[list[int]]:
        """Indices of the subgroup generated by the given elements.

        BFS from the identity by right multiplication; with a bound, returns
        None as soon as the subgroup would exceed it.
        """
        elements = self.elements
        index = self.index
        gens = sorted(set(gen_indices) - {self.identity_index})
        members = {self.identity_index}
        worklist = [self.identity_index]
        gen_perms = [(g, elements[g]) for g in gens]
        for g, _ in gen_perms:
            members.add(g)
            worklist.append(g)
        if bound is not None and len(members) > bound:
            return None
        k = 0
        while k < len(worklist):
            x = worklist[k]
            k += 1
            px = elements[x]
            for _, pg in gen_perms:
                y = index[(px * pg).images]
                if y not in members:
                    members.add(y)
                    if bound is not None and len(members) > bound:
                        return None
                    worklist.append(y)
        return sorted(members)

    def bits_of(self, indices: Sequence[int]) -> int:
        b = 0
        for i in indices:
            b |= 1 << i
        return b


def indices_of_bits(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def group_table(G: PermGroup, cap: int = DEFAULT_ENUM_CAP) -> GroupTable:
    G.elements(cap=cap)           # raises past the cap, cached table or not
    tab = G._cache.get("table")
    if tab is None:
        tab = GroupTable(G, cap=cap)
        G._cache["table"] = tab
    return tab


def small_generating_indices(tab: GroupTable, members: Sequence[int]) -> list[int]:
    """A short generating list for the subgroup with the given members."""
    target = len(members)
    gens: list[int] = []
    have = {tab.identity_index}
    for i in members:
        if i in have:
            continue
        gens.append(i)
        have = set(tab.closure(gens))
        if len(have) == target:
            break
    return gens


# ---------------------------------------------------------------------------
# conjugacy classes


@dataclass(frozen=True)
class ClassInfo:
    rep: Perm                 # lexicographically least member
    rep_index: int
    size: int
    element_order: int
    bits: int
    label: str


@dataclass
class ConjugacyTable:
    group: PermGroup
    classes: list[ClassInfo]
    class_of: list[int]       # element index -> class index

    def class_of_element(self, p: Perm) -> int:
        # the classes were read off this table, so no cap applies here
        i = self.group._cache["table"].index.get(p.images)
        if i is None:
            raise ValueError(f"{format_cycles(p)} is not an element of "
                             f"{self.group.name or 'the group'}")
        return self.class_of[i]


def conjugacy_classes(G: PermGroup, cap: int = DEFAULT_ENUM_CAP) -> ConjugacyTable:
    """Partition of G into conjugation orbits, in canonical order:
    (size, element order of representative, least representative)."""
    tab = group_table(G, cap=cap)
    cached = G._cache.get("conjugacy")
    if cached is not None:
        return cached
    maps = tab.conj_maps()
    assigned = [-1] * tab.n
    raw: list[list[int]] = []
    for start in range(tab.n):
        if assigned[start] >= 0:
            continue
        cid = len(raw)
        orbit = [start]
        assigned[start] = cid
        k = 0
        while k < len(orbit):
            x = orbit[k]
            k += 1
            for m in maps:
                y = m[x]
                if assigned[y] < 0:
                    assigned[y] = cid
                    orbit.append(y)
        raw.append(sorted(orbit))
    keyed = []
    for members in raw:
        rep_index = members[0]
        rep = tab.elements[rep_index]
        keyed.append((len(members), rep.order(), rep.images, rep_index, members))
    keyed.sort(key=lambda t: (t[0], t[1], t[2]))
    # labels: element order, with a/b/c suffix when several classes share it
    order_counts: dict[int, int] = {}
    for _, order, _, _, _ in keyed:
        order_counts[order] = order_counts.get(order, 0) + 1
    seen: dict[int, int] = {}
    classes = []
    class_of = [-1] * tab.n
    for new_cid, (size, order, _, rep_index, members) in enumerate(keyed):
        if order_counts[order] == 1:
            label = str(order)
        else:
            suffix = seen.get(order, 0)
            seen[order] = suffix + 1
            label = f"{order}{chr(ord('a') + suffix)}"
        classes.append(ClassInfo(
            rep=tab.elements[rep_index], rep_index=rep_index, size=size,
            element_order=order, bits=tab.bits_of(members), label=label))
        for i in members:
            class_of[i] = new_cid
    result = ConjugacyTable(group=G, classes=classes, class_of=class_of)
    G._cache["conjugacy"] = result
    return result


# ---------------------------------------------------------------------------
# the full subgroup lattice


@dataclass(frozen=True)
class SubgroupRecord:
    bits: int
    order: int
    gen_indices: tuple        # a small generating list (element indices)

    def member_indices(self) -> list[int]:
        return indices_of_bits(self.bits)


def _cyclic_seeds(tab: GroupTable) -> dict[int, SubgroupRecord]:
    seeds: dict[int, SubgroupRecord] = {}
    ident = 1 << tab.identity_index
    seeds[ident] = SubgroupRecord(bits=ident, order=1, gen_indices=())
    for i in range(tab.n):
        if i == tab.identity_index:
            continue
        members = [tab.identity_index]
        x = i
        while x != tab.identity_index:
            members.append(x)
            x = tab.mult(x, i)
        bits = tab.bits_of(members)
        if bits not in seeds:
            seeds[bits] = SubgroupRecord(bits=bits, order=len(members),
                                         gen_indices=(i,))
    return seeds


def subgroup_lattice(G: PermGroup, cap: int = DEFAULT_LATTICE_CAP
                     ) -> list[SubgroupRecord]:
    """Every subgroup of G, exactly once, in canonical (order, bits) order.

    Algorithm: seed with all cyclic subgroups, then close under pairwise
    join, deduplicating by member bitset.  Exhaustive but quadratic in the
    number of subgroups; intended for small groups (the profile machinery
    uses the dedicated maximal-class search instead).
    """
    if G.order > cap:
        raise CapExceeded(f"order {G.order} exceeds lattice cap {cap}")
    cached = G._cache.get("lattice")
    if cached is not None:
        return cached
    tab = group_table(G)
    found = _cyclic_seeds(tab)
    frontier = list(found.values())
    while frontier:
        new_records: list[SubgroupRecord] = []
        all_records = list(found.values())
        for rec_h in frontier:
            for rec_k in all_records:
                union = rec_h.bits | rec_k.bits
                if union == rec_h.bits or union == rec_k.bits:
                    continue
                if union in found:
                    continue
                gens = tuple(sorted(set(rec_h.gen_indices) | set(rec_k.gen_indices)))
                members = tab.closure(gens)
                bits = tab.bits_of(members)
                if bits not in found:
                    rec = SubgroupRecord(bits=bits, order=len(members),
                                         gen_indices=gens)
                    found[bits] = rec
                    new_records.append(rec)
        frontier = new_records
    records = sorted(found.values(), key=lambda r: (r.order, r.bits))
    G._cache["lattice"] = records
    return records
