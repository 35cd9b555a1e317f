"""Exact conjugacy classes of maximal subgroups.

The search has two complementary parts, together covering every maximal
subgroup class of an enumerable group:

* Sylow-seeded intervals.  A maximal subgroup whose index is coprime to
  some prime p contains a full Sylow p-subgroup, so its class shows up in
  the interval [P, G] for a fixed Sylow P.  That interval is the join
  closure of the single-step extensions <P, x> over coset representatives
  of P, and is tiny in practice.

* Bounded small-subgroup sweep.  A maximal subgroup that escapes every
  Sylow seed has index divisible by every prime factor of |G|, hence order
  at most B = |G| / rad(|G|).  Every subgroup is generated by one Sylow
  subgroup per prime dividing its order, so all subgroup classes of order
  <= B arise as iterated bounded joins of p-subgroup classes (p-subgroup
  classes come from the subgroups of a fixed Sylow, fused under G; join
  conjugates range over normalizer orbits, i.e. double cosets).  Survivors
  not inside an already-found maximal class are certified maximal by a
  direct one-step extension scan.

This dual search replaces the quadratic-in-subgroup-count full-lattice
route, which is far out of reach for the larger catalog groups; the two
routes are cross-checked against each other on small groups in the tests.

Representation.  Throughout the search a subgroup is the frozenset of its
indices in G's element table: containment is `<=`, and conjugation maps a
set through an index map, `frozenset(map(m.__getitem__, s))`.  Bitsets
(ints) appear only in the public records, built once per final class.  The
search conjugates constantly, and bitsets would make that 12 to 37 times
slower, since each image bit is set in an int as wide as the table: in the
20,160-element table of A8, conjugating a subgroup of 8 / 64 / 360 members
took 0.6 / 3.5 / 18 us as a frozenset and 7.5 / 126 / 607 us as a bitset
(CPython 3.11, one core of an Intel Xeon; the ratios ranged from 12 to 37
over repeated runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .group import (CapExceeded, DEFAULT_LATTICE_CAP, PermGroup,
                    _subgroup_if_proper, generates)
from .table import (GroupTable, conjugacy_classes, group_table,
                    indices_of_bits, small_generating_indices,
                    subgroup_lattice)


@dataclass(frozen=True)
class MaximalClass:
    """One conjugacy class of maximal subgroups: canonical representative,
    class geometry, and class-level fixed-point data."""

    rep_bits: int             # canonical (least-bitset) representative
    order: int
    class_size: int           # = index of the normalizer
    core_bits: int            # intersection of all conjugates
    mtilde_class_bits: int    # bitset over conjugacy-class indices meeting M
    v: Fraction               # |union of conjugates| / |G|
    label: str

    def member_indices(self) -> list[int]:
        return indices_of_bits(self.rep_bits)


def v_of(mc: MaximalClass) -> Fraction:
    """Density of the union of conjugates of the class representative."""
    return mc.v


# ---------------------------------------------------------------------------
# helpers on the element table


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _subgroup_orbit(tab, members: frozenset) -> list[frozenset]:
    """Conjugation orbit of a subgroup (as element-index sets)."""
    return _conj_orbit(tab.conj_maps(), members)


def _conj_orbit(maps: list[list[int]], members: frozenset) -> list[frozenset]:
    """Orbit of a subgroup under the elements with these conjugation maps,
    breadth first."""
    seen = {members}
    orbit = [members]
    k = 0
    while k < len(orbit):
        s = orbit[k]
        k += 1
        for m in maps:
            t = frozenset(map(m.__getitem__, s))
            if t not in seen:
                seen.add(t)
                orbit.append(t)
    return orbit


def _normalizer_indices(tab, members: frozenset) -> list[int]:
    """Element indices of the normalizer, via orbit-stabilizer with
    Schreier generators on the conjugation action."""
    gens = tab.group.generators or [tab.group.identity()]
    gen_idx = [tab.index[g.images] for g in gens]
    maps = tab.conj_maps()
    transversal: dict[frozenset, int] = {members: tab.identity_index}
    orbit = [members]
    stab_gens: set[int] = set()
    k = 0
    while k < len(orbit):
        s = orbit[k]
        k += 1
        c = transversal[s]
        for m, gi in zip(maps, gen_idx):
            t = frozenset(map(m.__getitem__, s))
            cg = tab.mult(c, gi)
            if t not in transversal:
                transversal[t] = cg
                orbit.append(t)
            else:
                sg = tab.mult(cg, tab.inv(transversal[t]))
                if sg != tab.identity_index:
                    stab_gens.add(sg)
    closure = tab.closure(sorted(stab_gens))
    assert len(closure) * len(orbit) == tab.n, "orbit-stabilizer mismatch"
    return closure


# ---------------------------------------------------------------------------
# Sylow subgroups and their overgroup intervals


def _sylow_indices(tab, p: int, full: int) -> list[int]:
    """A Sylow p-subgroup as element indices.

    Greedy absorption of p-elements: while the current p-subgroup Q is not
    full, some p-element x (inside any Sylow overgroup of Q, e.g. in the
    normalizer-growth chain) satisfies that <Q, x> is a bigger p-group, so
    repeated passes terminate with a full Sylow subgroup.
    """
    if full == 1:
        return [tab.identity_index]
    p_element_idx: set[int] = set()
    for i, e in enumerate(tab.elements):
        if i == tab.identity_index:
            continue
        o = e.order()
        q = o
        while q % p == 0:
            q //= p
        if q == o:
            continue                    # order coprime to p
        p_element_idx.add(i if q == 1 else tab.index[(e ** q).images])
    candidates = sorted(p_element_idx)
    gens: list[int] = []
    members = {tab.identity_index}
    while len(members) < full:
        grew = False
        for x in candidates:
            if x in members:
                continue
            # within the bound, a subgroup's order divides |P| = full
            # exactly when it is a p-group
            trial = tab.closure(gens + [x], bound=full)
            if trial is not None and full % len(trial) == 0:
                gens.append(x)
                members = set(trial)
                grew = True
                if len(members) == full:
                    break
        if not grew:
            raise AssertionError("sylow climb stalled")
    return sorted(members)


def _interval_maximals(tab: GroupTable, sylow_members: list[int]
                       ) -> list[frozenset]:
    """Maximal subgroups of G containing the given Sylow subgroup.

    The interval [P, G] is the join closure of the one-step extensions
    <P, x>; its maximal proper members are maximal in G outright, since any
    overgroup of an interval member again contains P.  A candidate is a
    list of generator indices; it is enumerated only when it generates a
    proper subgroup that no recorded subgroup of the same order contains.
    """
    G = tab.group
    p_gens = (small_generating_indices(tab, sylow_members) or
              [tab.identity_index])
    proper = [(p_gens, frozenset(sylow_members))]

    def record(gens: list[int]) -> Optional[tuple[list[int], frozenset]]:
        sub = _subgroup_if_proper([tab.elements[i] for i in gens], G.order)
        if sub is None:
            return None
        if any(len(w) == sub.order and w.issuperset(gens) for _, w in proper):
            return None
        cand = (gens, frozenset(tab.index[p.images]
                                for p in sub.chain.enumerate()))
        proper.append(cand)
        return cand

    # scan double cosets P\G/P: <P, pxp'> = <P, x>, so one extension each
    assigned = set(sylow_members)
    sylow_perms = [tab.elements[s] for s in sylow_members]
    for x in range(tab.n):
        if x in assigned:
            continue
        px = tab.elements[x]
        for s in sylow_perms:          # mark the double coset P*x*P
            sx = s * px
            for s2 in sylow_perms:
                assigned.add(tab.index[(sx * s2).images])
        record(p_gens + [x])
    frontier = list(proper)
    while frontier:
        new = []
        for a_gens, a in frontier:
            for b_gens, b in list(proper):
                if a <= b or b <= a:
                    continue
                added = record(a_gens + b_gens)
                if added is not None:
                    new.append(added)
        frontier = new
    return [w for _, w in proper if not any(w < v for _, v in proper)]


# ---------------------------------------------------------------------------
# bounded sweep for small maximal subgroups


class _ClassRec:
    """A conjugacy class of subgroups found during the sweep."""

    __slots__ = ("rep", "order", "orbit_set", "orbit_list", "norm_gens")

    def __init__(self, tab, rep: frozenset):
        self.rep = rep
        self.order = len(rep)
        self.orbit_list = _subgroup_orbit(tab, rep)
        self.orbit_set = set(self.orbit_list)
        self.norm_gens: Optional[list[int]] = None

    def normalizer_gens(self, tab) -> list[int]:
        if self.norm_gens is None:
            self.norm_gens = small_generating_indices(
                tab, _normalizer_indices(tab, self.rep))
        return self.norm_gens


class _ClassPool:
    """Dedups subgroup sets into conjugacy classes, lazily computing orbits."""

    def __init__(self, tab, class_of: list[int]):
        self.tab = tab
        self.class_of = class_of
        self.buckets: dict[tuple, list[_ClassRec]] = {}
        self.all: list[_ClassRec] = []

    def _key(self, fs: frozenset) -> tuple:
        counts: dict[int, int] = {}
        for i in fs:
            c = self.class_of[i]
            counts[c] = counts.get(c, 0) + 1
        return (len(fs), tuple(sorted(counts.items())))

    def add(self, fs: frozenset) -> Optional[_ClassRec]:
        """Register a subgroup set; return the record if the class is new."""
        bucket = self.buckets.setdefault(self._key(fs), [])
        for rec in bucket:
            if fs in rec.orbit_set:
                return None
        rec = _ClassRec(self.tab, fs)
        bucket.append(rec)
        self.all.append(rec)
        return rec


def _sylow_subgroup_classes(tab, sylow_members: list[int], bound: int,
                            pool: _ClassPool) -> list[_ClassRec]:
    """All G-classes of nontrivial subgroups of the given Sylow, up to the
    order bound (every p-subgroup is conjugate into the fixed Sylow)."""
    out: list[_ClassRec] = []
    if len(sylow_members) == 1:
        return out
    sub = PermGroup([tab.elements[i]
                     for i in small_generating_indices(tab, sylow_members)])
    sub_elements = sub.elements()
    for rec in subgroup_lattice(sub, cap=len(sylow_members)):
        if rec.order == 1 or rec.order > bound:
            continue
        fs = frozenset(tab.index[sub_elements[i].images]
                       for i in rec.member_indices())
        new = pool.add(fs)
        if new is not None:
            out.append(new)
    return out


def _bounded_join(tab, a: frozenset, b: frozenset, bound: int
                  ) -> Optional[frozenset]:
    gens = (small_generating_indices(tab, sorted(a)) +
            small_generating_indices(tab, sorted(b)))
    closure = tab.closure(gens, bound=bound)
    return frozenset(closure) if closure is not None else None


def _norm_orbit_reps(tab, norm_gens: list[int], targets: list[frozenset]
                     ) -> list[frozenset]:
    """One representative per orbit of the normalizer acting by conjugation
    on the target class (realizes double-coset conjugator enumeration)."""
    maps = [tab.elem_conj_map(gi) for gi in norm_gens]
    reps: list[frozenset] = []
    seen: set[frozenset] = set()
    for t in targets:
        if t not in seen:
            reps.append(t)
            seen.update(_conj_orbit(maps, t))
    return reps


def _certify_maximal(tab, members: frozenset) -> bool:
    """Exact check: every one-step extension is the whole group."""
    G = tab.group
    gens = [tab.elements[i]
            for i in small_generating_indices(tab, sorted(members))]
    if not gens:
        gens = [G.identity()]
    assigned = set(members)
    for x in range(tab.n):
        if x in assigned:
            continue
        px = tab.elements[x]
        for s in members:
            assigned.add(tab.index[(tab.elements[s] * px).images])
        if not generates(gens + [px], G.order):
            return False
    return True


def _sweep_small_maximals(tab, bound: int, sylows: dict[int, list[int]],
                          found_orbits: list[set[frozenset]]
                          ) -> list[frozenset]:
    """Certified maximal subgroups of order <= bound whose classes are not
    conjugate into any already-found maximal class."""
    G = tab.group
    class_of = conjugacy_classes(G).class_of
    pool = _ClassPool(tab, class_of)
    per_prime: dict[int, list[_ClassRec]] = {
        p: _sylow_subgroup_classes(tab, members, bound, pool)
        for p, members in sylows.items()}
    primes = sorted(per_prime)
    # every subgroup is the join of one Sylow per prime of its order, built
    # here in increasing-prime order: partials tagged with their top prime
    # only ever join classes of strictly larger primes
    frontier: list[tuple[_ClassRec, int]] = [
        (r, p) for p in primes for r in per_prime[p]]
    while frontier:
        new_recs: list[tuple[_ClassRec, int]] = []
        for rec, top in frontier:
            for q in primes:
                if q <= top:
                    continue
                for q_rec in per_prime[q]:
                    if math.lcm(rec.order, q_rec.order) > bound:
                        continue
                    # enumerate conjugators over the cheaper side's orbit
                    if (len(rec.orbit_list) * rec.order <=
                            len(q_rec.orbit_list) * q_rec.order):
                        norm = q_rec.normalizer_gens(tab)
                        moving, fixed = rec, q_rec
                    else:
                        norm = rec.normalizer_gens(tab)
                        moving, fixed = q_rec, rec
                    for m_set in _norm_orbit_reps(tab, norm, moving.orbit_list):
                        j = _bounded_join(tab, fixed.rep, m_set, bound)
                        if j is None or j == fixed.rep:
                            continue
                        added = pool.add(j)
                        if added is not None:
                            new_recs.append((added, q))
        frontier = new_recs
    # candidate filtering
    trivial = frozenset([tab.identity_index])
    if list(sylows) == [G.order]:               # |G| is prime
        return [trivial] if _certify_maximal(tab, trivial) else []
    survivors = [rec for rec in pool.all
                 if not any(rec.rep <= m for o in found_orbits for m in o)]
    certified: list[frozenset] = []
    survivors.sort(key=lambda r: -r.order)
    for rec in survivors:
        if any(other.order > rec.order and
               any(rec.rep < o for o in other.orbit_set)
               for other in survivors):
            continue
        if any(any(o <= c for c in certified) for o in rec.orbit_set):
            continue
        if _certify_maximal(tab, rec.rep):
            certified.append(rec.rep)
    return certified


# ---------------------------------------------------------------------------
# the public entry point


def maximal_subgroups(G: PermGroup, cap: int = DEFAULT_LATTICE_CAP
                      ) -> list[MaximalClass]:
    """Conjugacy classes of maximal subgroups of G, canonically ordered by
    (descending order, class size, least representative bitset)."""
    if G.order > cap:
        raise CapExceeded(f"order {G.order} exceeds structural cap {cap}")
    cached = G._cache.get("maximal")
    if cached is not None:
        return cached
    tab = group_table(G)
    ct = conjugacy_classes(G)
    fact = _factorize(G.order)

    sylows: dict[int, list[int]] = {}
    seed_maximals: list[frozenset] = []
    for p, e in sorted(fact.items()):
        members = _sylow_indices(tab, p, p ** e)
        sylows[p] = members
        if len(members) < G.order:
            seed_maximals.extend(_interval_maximals(tab, members))

    # dedup across prime seeds, materialize class orbits
    orbits: list[set[frozenset]] = []
    for w in seed_maximals:
        if not any(w in o for o in orbits):
            orbits.append(set(_subgroup_orbit(tab, w)))

    bound = G.order // math.prod(fact)
    for extra in _sweep_small_maximals(tab, bound, sylows, orbits):
        if not any(extra in o for o in orbits):
            orbits.append(set(_subgroup_orbit(tab, extra)))

    classes = []
    for orbit in orbits:
        obits = [tab.bits_of(s) for s in orbit]
        rep_bits = min(obits)
        core = tab.bits_of(frozenset.intersection(*orbit))
        mtilde = 0
        covered = 0
        for ci, c in enumerate(ct.classes):
            if c.bits & rep_bits:
                mtilde |= 1 << ci
                covered += c.size
        classes.append((rep_bits.bit_count(), len(obits), rep_bits, core,
                        mtilde, Fraction(covered, G.order)))
    classes.sort(key=lambda t: (-t[0], t[1], t[2]))
    final = [MaximalClass(rep_bits=rb, order=order, class_size=cs,
                          core_bits=core, mtilde_class_bits=mt, v=v,
                          label=f"M{i + 1}[{order}]")
             for i, (order, cs, rb, core, mt, v) in enumerate(classes)]
    # tripwire: in a noncyclic group every nonidentity class meets some
    # conjugate of some maximal subgroup
    if not any(c.element_order == G.order for c in ct.classes):
        for ci in range(1, len(ct.classes)):
            assert any(mc.mtilde_class_bits >> ci & 1 for mc in final), \
                f"class {ct.classes[ci].label} uncovered: incomplete search"
    G._cache["maximal"] = final
    return final
