"""The element table of an enumerable group, and what is read off it
directly: conjugacy classes, classes of subgroups and the full subgroup
lattice.  Elements are numbered in sorted order (identity 0); records hold
bitsets over these indices, in a fixed canonical order so reports are
reproducible.  One breadth-first helper, ``orbits``, walks the orbits and
reachable sets of conjugacy classes, fused classes, class tuples,
normalizer orbits, the cyclic-subgroup count and the states of the
Chebotarev chain.  A class of subgroups is walked once, by its record
``_ClassRec``, which lists its conjugates in the order ``orbits`` would
and keeps the walk's steps, from which it reads the normalizer.

One walk, ``subgroup_classes``, finds the classes of subgroups of order
dividing a given number, extending one representative per class by one
element per normalizer orbit.  The lattice expands its classes at |G| by
their orbits; the maximal search's last step takes them as candidates
where its p-local argument stops.  On A6 (501 subgroups, 22 classes) the
lattice took 0.07 s, against 28.9 s when every subgroup found was joined
with every other (single runs, CPython 3.11 on a shared Intel Xeon host;
BENCH_classwalk.json).

Products in the table never build a Perm.  Walks multiply on the right,
x -> x * g: the index of x * g is that of x's string (perm.py) translated
by g's table, one ``bytes.translate`` call and an ``index`` lookup.  An
element's right-multiplication map (x -> x * g for every x, n entries) is
built once the products it has cost in ``closure`` reach n, the price of
building the map; after that each product is a list lookup.  This is the
ski-rental rule: the count is read as a call starts, so at most 2n
products precede the map, and the total stays within three times the
cheaper of the two choices.  Its threshold is the table's own size, with
nothing to tune.  There is no Cayley table: A8's would hold 20160**2
(406M) entries, while its maximal search closes subgroups on 3,500
distinct generators and builds maps for 11.

A bounded closure rents its walk the same way.  Once a walk with a bound
below n has made about as many products as one ``_order_lower_bound`` run
of the unverified chain costs, it asks that chain once; when the chain's
lower bound exceeds the bound, the closure returns None at once, and
otherwise the walk goes on to the end, having paid for one run more.  A
run sifts at least _PR_MISSES random elements through at most one level
per point, so the threshold is _PR_MISSES times the degree in products,
with nothing new to tune; on six catalog groups of degree 5 to 13 a run
cost 33 to 172 products, against thresholds of 100 to 260.  The answer
stays exact: the product of the chain's orbit lengths is a lower bound on
|<gens>| (group.py), so a bound it exceeds is exceeded.  On A8 the seven
normal closures of the chief series that are the whole group end after 16
to 80 walked elements instead of 10,080.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .group import (CapExceeded, DEFAULT_LATTICE_CAP, PermGroup, _PR_MISSES,
                    _order_lower_bound)
from .perm import Perm, format_cycles, translation_table


# ---------------------------------------------------------------------------
# element table machinery


class GroupTable:
    """Element table of a group with index-level multiplication and
    per-generator conjugation maps."""

    def __init__(self, group: PermGroup):
        self.group = group
        self.generators = group.generators or [group.identity()]
        self.elements = group.elements()
        self.index = {p.bytes: i for i, p in enumerate(self.elements)}
        self.n = len(self.elements)
        self.identity_index = 0   # identity is lexicographically least
        self._conj_maps: Optional[list[list[int]]] = None
        self._inv_map: Optional[list[int]] = None
        self._elem_conj_maps: dict[int, list[int]] = {}
        self._right_maps: dict[int, list[int]] = {}
        self._right_uses: dict[int, int] = {}
        # what one lower-bound run of the chain costs, in table products
        self._chain_cost = _PR_MISSES * group.degree

    def _table(self, g: int) -> bytes:
        return translation_table(self.elements[g].bytes)

    def _right_map(self, g: int) -> list[int]:
        t = self._table(g)
        index = self.index
        return [index[x.bytes.translate(t)] for x in self.elements]

    def mult(self, i: int, j: int) -> int:
        m = self._right_maps.get(j)
        if m is not None:
            return m[i]
        return self.index[self.elements[i].bytes.translate(self._table(j))]

    def inv(self, i: int) -> int:
        if self._inv_map is None:
            self._inv_map = [self.index[p.inverse().bytes]
                             for p in self.elements]
        return self._inv_map[i]

    def conj_maps(self) -> list[list[int]]:
        """For each group generator g, the index map i -> index(e_i ^ g)."""
        if self._conj_maps is None:
            self._conj_maps = [self.elem_conj_map(self.index[g.bytes])
                               for g in self.generators]
        return self._conj_maps

    def elem_conj_map(self, gi: int) -> list[int]:
        """Index map of conjugation by element gi, cached.

        One right-multiplication pass, by g, gives a(x) = (x * g)^-1, which
        is g^-1 * x^-1; then x^g = g^-1 * x * g = a(a(x)).
        """
        cached = self._elem_conj_maps.get(gi)
        if cached is not None:
            return cached
        self.inv(gi)                  # fills self._inv_map
        right = self._right_maps.get(gi) or self._right_map(gi)
        a = list(map(self._inv_map.__getitem__, right))
        out = self._elem_conj_maps[gi] = list(map(a.__getitem__, a))
        return out

    def double_cosets(self, members: Sequence[int]
                      ) -> Iterator[tuple[int, set[int]]]:
        """Each double coset H * e_x * H other than H, for the subgroup H
        with the given members, as (x, its indices) with x its least index;
        products as in closure, H * e_x first, then each times H."""
        strings = [self.elements[h].bytes for h in members]
        tables = list(map(self._table, members))
        assigned = set(members)
        for x in range(self.n):
            if x not in assigned:
                tx = self._table(x)
                hx = [h.translate(tx) for h in strings]
                hxh = {self.index[y.translate(t)] for t in tables for y in hx}
                assigned |= hxh
                yield x, hxh

    def closure(self, gen_indices: Sequence[int], bound: Optional[int] = None
                ) -> Optional[list[int]]:
        """Sorted indices of the subgroup generated by the given elements.

        BFS from the identity by right multiplication, x -> x * g for each
        generator g: through g's map when it has one, else by translating
        x's string by g's table (module docstring).  Such products count
        towards g's map, which a later call builds once they reach n.  With
        a bound below n, returns None as soon as the subgroup is seen or
        proved to exceed it, so exactly when |<gens>| > bound: once the walk
        has cost about one lower-bound run of the chain, the chain is asked
        once (module docstring).
        """
        n = self.n
        if bound is None:
            bound = n
        gens = sorted(set(gen_indices) - {self.identity_index})
        maps: list[list[int]] = []
        tables = []
        rented = []
        for g in gens:
            m = self._right_maps.get(g)
            if m is None and self._right_uses.get(g, 0) >= n:
                m = self._right_maps[g] = self._right_map(g)
            if m is None:
                tables.append(self._table(g))
                rented.append(g)
            else:
                maps.append(m)
        index = self.index
        elements = self.elements
        seen = bytearray(n)
        worklist = [self.identity_index, *gens]
        for x in worklist:
            seen[x] = 1
        # past `rent` walked elements, the chain is asked once (docstring)
        rent = -(-self._chain_cost // len(gens)) if gens and bound < n else n
        k = 0
        for stop in (rent, n):
            while k < stop and k < len(worklist) <= bound:
                x = worklist[k]
                k += 1
                for m in maps:
                    y = m[x]
                    if not seen[y]:
                        seen[y] = 1
                        worklist.append(y)
                if tables:
                    xs = elements[x].bytes
                    for t in tables:
                        y = index[xs.translate(t)]
                        if not seen[y]:
                            seen[y] = 1
                            worklist.append(y)
            if (k == rent < len(worklist) <= bound and _order_lower_bound(
                    [elements[g] for g in gens], bound) > bound):
                break
        uses = self._right_uses
        for g in rented:
            uses[g] = uses.get(g, 0) + k
        if k < len(worklist):         # stopped early: past the bound
            return None
        worklist.sort()
        return worklist

    def bits_of(self, indices: Sequence[int]) -> int:
        """The bitset of the given indices, set byte by byte: linear in n."""
        buf = bytearray((self.n + 7) >> 3)
        for i in indices:
            buf[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(buf, "little")


_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")


def indices_of_bits(bits: int) -> list[int]:
    """The positions of the set bits, ascending: one scan of the binary
    digits, least significant first, linear in the bit length."""
    digits = bin(bits)[:1:-1].encode().translate(_BINARY_DIGITS)
    return list(compress(range(len(digits)), digits))


def group_table(G: PermGroup) -> GroupTable:
    tab = G._cache.get("table")
    if tab is None:
        # the table and classes refer back weakly, so no cycle holds G
        tab = GroupTable(weakref.proxy(G))
        G._cache["table"] = tab
    return tab


def orbits(points: Iterable, images: Callable[..., Iterable]) -> list[list]:
    """The orbits that meet `points`, in the order the points first meet
    them, each listed breadth first from that point; images(x) lists x's
    images under the generators, in generator order.

    For maps that are not invertible an "orbit" is the set reachable from
    its start, less the points of earlier orbits: from one start, exactly
    the set reachable from it.
    """
    seen = set()
    out = []
    for start in points:
        if start not in seen:
            seen.add(start)
            orbit = [start]
            for x in orbit:             # also visits appended points
                for y in images(x):
                    if y not in seen:
                        seen.add(y)
                        orbit.append(y)
            out.append(orbit)
    return out


def largest_proper_divisor(n: int) -> int:
    """n over its least prime factor (1 for n = 1).  A subgroup of a group
    of order n that is larger than this is the whole group."""
    return n // next((p for p in range(2, n + 1) if n % p == 0), 1)


def prime_of_power(o: int) -> int:
    """The prime p when o > 1 is a power of p, else 0."""
    p = o // largest_proper_divisor(o)          # o's least prime
    # o is a power of p exactly when it divides p**k, k >= log2(o)
    return p if o > 1 and p ** o.bit_length() % o == 0 else 0


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
        i = self.group._cache["table"].index.get(p.bytes)
        if i is None:
            raise ValueError(f"{format_cycles(p)} is not an element of "
                             f"{self.group.name or 'the group'}")
        return self.class_of[i]


def conjugacy_classes(G: PermGroup) -> ConjugacyTable:
    """Partition of G into conjugation orbits, in canonical order:
    (size, element order of representative, least representative)."""
    tab = group_table(G)
    cached = G._cache.get("conjugacy")
    if cached is not None:
        return cached
    images = list(zip(*tab.conj_maps()))   # x -> x's conjugates by the gens
    # indices are in element order, so the least member's is the last key
    keyed = sorted((len(m), tab.elements[m[0]].order(), m[0], m) for m in
                   map(sorted, orbits(range(tab.n), images.__getitem__)))
    # labels: element order, with a/b/c suffix when several classes share it
    order_counts: dict[int, int] = {}
    for _, order, _, _ in keyed:
        order_counts[order] = order_counts.get(order, 0) + 1
    seen: dict[int, int] = {}
    classes = []
    class_of = [-1] * tab.n
    for new_cid, (size, order, rep_index, members) in enumerate(keyed):
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
# conjugacy classes of subgroups


class _ClassRec:
    """A conjugacy class of subgroups held by a _ClassPool.

    Its conjugates are walked once, breadth first from `rep` under the
    group generators in generator order, as ``orbits`` walks them, and
    `orbit` lists them in that order.  The walk keeps a conjugator t_s for
    each new conjugate s (rep^t_s = s) and, for each other step s -> s^g,
    the Schreier generator's parts (t_s, g, t_(s^g)), which ``normalizer``
    reads."""

    __slots__ = ("rep", "orbit", "_steps")

    def __init__(self, tab: GroupTable, rep: tuple):
        self.rep = rep
        self.orbit = [rep]
        self._steps: list[tuple[int, int, int]] = []
        conjugator = {rep: tab.identity_index}
        moves = list(zip(tab.conj_maps(),
                         [tab.index[g.bytes] for g in tab.generators]))
        for s in self.orbit:            # also visits appended conjugates
            c = conjugator[s]
            for m, g in moves:
                t = tuple(sorted(map(m.__getitem__, s)))
                d = conjugator.get(t)
                if d is None:
                    conjugator[t] = tab.mult(c, g)
                    self.orbit.append(t)
                else:
                    self._steps.append((c, g, d))

    def normalizer(self, tab: GroupTable) -> tuple[list[int], list[int]]:
        """(members, generators) of the normalizer N of `rep`, as element
        indices.  The orbit gives |N| = |G| / |orbit|; the Schreier
        generators t_s g t_(s^g)^-1 of the walk's steps generate N, so they
        are closed one at a time, each only if not already in the closure,
        until the closure reaches |N|."""
        order = tab.n // len(self.orbit)
        gens: list[int] = []
        members = [tab.identity_index]
        for c, g, d in self._steps:
            if len(members) == order:
                break
            sg = tab.mult(tab.mult(c, g), tab.inv(d))
            if sg not in members:
                gens.append(sg)
                members = tab.closure(gens)
        assert len(members) * len(self.orbit) == tab.n, \
            "orbit-stabilizer mismatch"
        return members, gens


class _ClassPool:
    """Dedups subgroups, as sorted index tuples, into conjugacy classes: one
    dict maps every conjugate of a found class to the class's record."""

    def __init__(self, tab: GroupTable):
        self.tab = tab
        self.class_of: dict[tuple, _ClassRec] = {}
        self.all: list[_ClassRec] = []

    def add(self, s: tuple) -> Optional[_ClassRec]:
        """Register a subgroup; return the record if the class is new."""
        if s in self.class_of:
            return None
        rec = _ClassRec(self.tab, s)
        self.class_of.update(dict.fromkeys(rec.orbit, rec))
        self.all.append(rec)
        return rec


def subgroup_classes(tab: GroupTable, divisor: int) -> list[_ClassRec]:
    """Every conjugacy class of subgroups of order dividing `divisor`, one
    record each, the trivial class first, then in the order found.

    The walk visits each record, new ones too, in pool order.  Its
    representative K is extended by one x per N_G(K)-orbit on the elements
    x outside K of order a power of a prime p, dividing the divisor, with
    x^p in K; <K, x> joins the pool when its order divides the divisor.
    No class is missed.  A subgroup H > 1 is generated by its elements of
    prime-power order (each element is a product of prime-power powers of
    itself), so for K maximal in H some such y lies outside K; of y, y^p,
    y^(p^2), ..., the last one outside K is an x as above, and H = <K, x>,
    where |x| divides |H|, which divides the divisor.  By induction on |H|,
    K's class has a record, with representative K^g; then H^g = <K^g, x^g>,
    and some n in N_G(K^g) moves x^g, a candidate for K^g, to the chosen
    member of its orbit, so a conjugate of H is closed and pooled.
    """
    ct = conjugacy_classes(tab.group)
    primes = [prime_of_power(c.element_order) if divisor % c.element_order == 0
              else 0 for c in ct.classes]
    powers = []                                 # (x, x^p) for each candidate
    for x, c in enumerate(ct.class_of):
        if primes[c]:
            powers.append((x, functools.reduce(tab.mult, [x] * primes[c])))
    # a closure past |G|/p is all of G, so stop there and pool G itself
    bound = min(divisor, largest_proper_divisor(tab.n))
    pool = _ClassPool(tab)
    pool.add((tab.identity_index,))
    for rec in pool.all:                        # also visits appended records
        k_gens = small_generating_indices(tab, rec.rep)
        maps = list(map(tab.elem_conj_map, rec.normalizer(tab)[1]))
        inside = set(rec.rep)
        outside = [x for x, xp in powers if xp in inside and x not in inside]
        for orbit in orbits(outside, lambda x: [m[x] for m in maps]):
            members = tab.closure(k_gens + [orbit[0]], bound=bound)
            if members is None and bound < divisor:
                members = range(tab.n)
            if members is not None and divisor % len(members) == 0:
                pool.add(tuple(members))
    return pool.all


# ---------------------------------------------------------------------------
# the full subgroup lattice


@dataclass(frozen=True)
class SubgroupRecord:
    bits: int
    order: int
    gen_indices: tuple        # a small generating list (element indices)

    def member_indices(self) -> list[int]:
        return indices_of_bits(self.bits)


def subgroup_lattice(G: PermGroup, cap: int = DEFAULT_LATTICE_CAP
                     ) -> list[SubgroupRecord]:
    """Every subgroup of G, exactly once, in canonical (order, bits) order:
    the classes of subgroup_classes, each expanded by its orbit."""
    if G.order > cap:
        raise CapExceeded(f"order {G.order} exceeds lattice cap {cap}")
    cached = G._cache.get("lattice")
    if cached is not None:
        return cached
    tab = group_table(G)
    records = sorted(
        (SubgroupRecord(bits=tab.bits_of(s), order=len(s), gen_indices=tuple(
            small_generating_indices(tab, s)))
         for rec in subgroup_classes(tab, tab.n) for s in rec.orbit),
        key=lambda r: (r.order, r.bits))
    G._cache["lattice"] = records
    return records
