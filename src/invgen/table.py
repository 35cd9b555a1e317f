"""The element table of an enumerable group, and what is read off it
directly: conjugacy classes and the full subgroup lattice.  Elements are
numbered in sorted order (identity 0); records hold bitsets over these
indices, in a fixed canonical order so reports are reproducible.

Products in the table never build a Perm.  With (p * q)(i) = q(p(i)), the
image tuple of g * x is x's image tuple read at g's images: one
``operator.itemgetter`` call plus an ``index`` lookup.  An element's
left-multiplication map (x -> g * x for every x, n entries) is built once
the products it has cost in ``closure`` reach n, the price of building the
map; after that each product is a list lookup.  This is the ski-rental
rule: the count is read as a call starts, so at most 2n products precede
the map, and the total stays within three times the cheaper of the two
choices.  Its threshold is the table's own size, with nothing to tune.
There is no Cayley table: A8's would hold 20160**2 (406M) entries, while
its maximal search closes subgroups on 3,500 distinct generators and
builds maps for 11.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence

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
        self.generators = group.generators or [group.identity()]
        self.elements = group.elements(cap=cap)
        self.index = {p.images: i for i, p in enumerate(self.elements)}
        self.n = len(self.elements)
        self.identity_index = 0   # identity is lexicographically least
        self._conj_maps: Optional[list[list[int]]] = None
        self._inv_map: Optional[list[int]] = None
        self._elem_conj_maps: dict[int, list[int]] = {}
        self._left_maps: dict[int, list[int]] = {}
        self._left_uses: dict[int, int] = {}

    def _left_getter(self, g: int) -> Callable[[tuple], tuple]:
        """Take x's image tuple to that of e_g * e_x."""
        gim = self.elements[g].images
        if len(gim) == 1:         # itemgetter of one index returns a scalar
            return tuple
        return itemgetter(*[j - 1 for j in gim])

    def _left_map(self, g: int) -> list[int]:
        get = self._left_getter(g)
        index = self.index
        return [index[get(x.images)] for x in self.elements]

    def mult(self, i: int, j: int) -> int:
        m = self._left_maps.get(i)
        if m is not None:
            return m[j]
        return self.index[self._left_getter(i)(self.elements[j].images)]

    def inv(self, i: int) -> int:
        if self._inv_map is None:
            self._inv_map = [self.index[p.inverse().images] for p in self.elements]
        return self._inv_map[i]

    def conj_maps(self) -> list[list[int]]:
        """For each group generator g, the index map i -> index(e_i ^ g)."""
        if self._conj_maps is None:
            self._conj_maps = [self.elem_conj_map(self.index[g.images])
                               for g in self.generators]
        return self._conj_maps

    def elem_conj_map(self, gi: int) -> list[int]:
        """Index map of conjugation by element gi, cached.

        One left-multiplication pass, by g^-1, gives a(x) = (g^-1 * x)^-1,
        which is x^-1 * g; then x^g = g^-1 * x * g = a(a(x)).
        """
        cached = self._elem_conj_maps.get(gi)
        if cached is not None:
            return cached
        gi_inv = self.inv(gi)
        left = self._left_maps.get(gi_inv) or self._left_map(gi_inv)
        a = list(map(self._inv_map.__getitem__, left))
        out = self._elem_conj_maps[gi] = list(map(a.__getitem__, a))
        return out

    def double_cosets(self, members: Sequence[int]
                      ) -> Iterator[tuple[int, set[int]]]:
        """Each double coset H * e_x * H other than H, for the subgroup H
        with the given members, as (x, its indices) with x its least index;
        read off image tuples as in closure."""
        images = [self.elements[h].images for h in members]
        getters = list(map(self._left_getter, members))
        assigned = set(members)
        for x in range(self.n):
            if x not in assigned:
                xh = list(map(self._left_getter(x), images))
                hxh = {self.index[get(y)] for get in getters for y in xh}
                assigned |= hxh
                yield x, hxh

    def closure(self, gen_indices: Sequence[int], bound: Optional[int] = None
                ) -> Optional[list[int]]:
        """Sorted indices of the subgroup generated by the given elements.

        BFS from the identity by left multiplication, x -> g * x for each
        generator g: through g's map when it has one, else by reading x's
        image tuple at g's images (module docstring).  Such products count
        towards g's map, which a later call builds once they reach n.  With
        a bound, returns None as soon as the subgroup is seen to exceed it,
        so exactly when |<gens>| > bound.
        """
        n = self.n
        if bound is None:
            bound = n
        gens = sorted(set(gen_indices) - {self.identity_index})
        maps: list[list[int]] = []
        getters = []
        rented = []
        for g in gens:
            m = self._left_maps.get(g)
            if m is None and self._left_uses.get(g, 0) >= n:
                m = self._left_maps[g] = self._left_map(g)
            if m is None:
                getters.append(self._left_getter(g))
                rented.append(g)
            else:
                maps.append(m)
        index = self.index
        elements = self.elements
        seen = bytearray(n)
        worklist = [self.identity_index, *gens]
        for x in worklist:
            seen[x] = 1
        k = 0
        while k < len(worklist) <= bound:
            x = worklist[k]
            k += 1
            for m in maps:
                y = m[x]
                if not seen[y]:
                    seen[y] = 1
                    worklist.append(y)
            if getters:
                xim = elements[x].images
                for get in getters:
                    y = index[get(xim)]
                    if not seen[y]:
                        seen[y] = 1
                        worklist.append(y)
        uses = self._left_uses
        for g in rented:
            uses[g] = uses.get(g, 0) + k
        if len(worklist) > bound:
            return None
        worklist.sort()
        return worklist

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
        # the table and classes refer back weakly, so no cycle holds G
        tab = GroupTable(weakref.proxy(G), cap=cap)
        G._cache["table"] = tab
    return tab


def largest_proper_divisor(n: int) -> int:
    """n over its least prime factor (1 for n = 1).  A subgroup of a group
    of order n that is larger than this is the whole group."""
    return n // next((p for p in range(2, n + 1) if n % p == 0), 1)


def small_generating_indices(tab: GroupTable, members: Sequence[int]) -> list[int]:
    """A short generating list for the subgroup with the given members."""
    bound = largest_proper_divisor(len(members))
    gens: list[int] = []
    have = {tab.identity_index}
    for i in members:
        if i in have:
            continue
        gens.append(i)
        closed = tab.closure(gens, bound=bound)
        if closed is None:        # past the bound: <gens> is the subgroup
            break
        have = set(closed)
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
    result = ConjugacyTable(group=tab.group, classes=classes, class_of=class_of)
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
