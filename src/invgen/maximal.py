"""Exact conjugacy classes of maximal subgroups.

The search is one chain over the primes of |G|.  Step p asks which maximal
subgroups of order dividing D = |G| / prod(S), S the primes done before
p, contain a fixed Sylow p-subgroup P.  Each step divides the bound by p,
so the largest primes go first: they shrink it fastest for the later,
costlier steps (BENCH_maximal.json has the orders measured).

* Sylow intervals.  A maximal subgroup of index coprime to p has a
  conjugate in [P, G]; p's interval keeps the members of order dividing D.
  - No class is lost.  A maximal M still missing has index divisible by
    every prime in S (else an earlier step found it), so |M|, and the
    order of every subgroup between P and M, divides D.
  - The containment filter.  A maximal member H of the cut-down interval
    that lies inside a found class is dropped; every other one is maximal
    in G.  For a maximal M' > H of G contains P but is not in the cut-down
    interval, so |M'| does not divide D: its index is coprime to some
    prime in S, and its class was found at that prime.

* The p-local step, the last one, with D = |G| / rad(|G|).  A maximal M
  still missing has order dividing D: its index is divisible by every
  prime of |G|, so it is not prime and M is not normal.
  - Why normalizers are enough.  Let C = core_G(M).  If M is solvable,
    which holds whenever D has at most two prime divisors (Burnside's
    p^a q^b theorem), M/C has a nontrivial normal p-subgroup for some p;
    let Q be its preimage and P a Sylow p-subgroup of Q.  Q is not normal
    in G, so N_G(Q) = M; N_G(P) normalizes CP = Q, so N_G(P) <= M, and the
    Frattini argument gives M = Q N_M(P) = C N_G(P).
  - Why C = 1.  A nontrivial C is a normal subgroup of order dividing D,
    so it holds the normal closure of each of its elements of prime order,
    again of order dividing D.  The step runs only when no class of
    elements of prime order has such a normal closure (one closure per
    class, bounded by D), so there every missing M is core-free and is
    N_G(P), P a p-subgroup of order dividing D.  The candidates are the
    normalizers of the p-subgroup classes from hyperplane descent with
    |N_G(P)| = |G| / |orbit| dividing D and below |G|.  Largest first, each
    that lies in no found class is certified maximal by a direct one-step
    extension scan.  A candidate that is not maximal lies in a maximal M:
    if |M| does not divide D, M was found at an interval; else M is a
    larger candidate, walked and found before it.
  - p-groups.  Every maximal subgroup is normal, of index p.  By
    Burnside's basis theorem they are the preimages of the hyperplanes of
    G/Phi(G), each its own class; nothing is certified.
  - The join sweep runs where the argument stops: when D has three or more
    primes, so that M can be nonsolvable (the A5 diagonals of A5 x A5,
    D = 120), or when a class of prime order has a normal closure of order
    dividing D (S4 and C12 in the catalog).  Every subgroup is generated by
    one Sylow subgroup per prime dividing its order, so all subgroup
    classes of order dividing D arise as iterated joins, of order dividing
    D, of p-subgroup classes; join conjugates range over normalizer
    orbits, i.e. double cosets.  Largest first, each class that lies in no
    found class is certified maximal.

The full-lattice route, quadratic in the number of subgroups, is far out
of reach for the larger catalog groups; the tests cross-check the two
routes on small groups.

Representation.  A subgroup is held by its indices in G's element table,
and conjugation maps them through an index map.  The interval search asks
for containment among the subgroups it closes, so there a subgroup is a
frozenset (`<=`).  The last step's pool asks only for equality, so one
dict keys each class by the sorted index tuples of all its conjugates.  A
member reference costs about 88 B in a frozenset and 8 B in a tuple: in
the join sweep's pool on A8 (91 classes, 37,957 conjugates) tuples cut the
traced peak from 65.9 MB to 21.6 MB (BENCH_pool.json).  Orbits are
walked on tuples, by `_conj_orbits`: in a bitset each image bit is set in
an int as wide as the table, so conjugating a subgroup of 8 / 64 / 360
members of A8 took 7.5 / 126 / 607 us as a bitset and 0.6 / 3.5 / 18 us as
a frozenset (CPython 3.11, one core of an Intel Xeon; ratios 12 to 37 over
reruns).  A found maximal class is held once, from discovery to its
record, as its conjugates' bitsets (ints), each converted once from the
walked orbit; a containment test against it is one `&`.  A8's 6 classes
have 157 conjugates, 0.39 MB as bitsets and 8.9 MB as frozensets: with
bitsets the search's traced peak fell from 21.6 MB to 13.1 MB.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .group import (CapExceeded, DEFAULT_LATTICE_CAP, PermGroup,
                    _order_lower_bound, generates)
from .table import (GroupTable, conjugacy_classes, group_table,
                    indices_of_bits, orbits, small_generating_indices)


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


def _orbit_bits(tab, members) -> list[int]:
    """Conjugation orbit of a subgroup, as member bitsets."""
    return list(map(tab.bits_of, _conj_orbits(
        tab.conj_maps(), [tuple(sorted(members))])[0]))


def _inside(bits: int, found: list[list[int]]) -> bool:
    """Whether the subgroup with these member bits lies in a conjugate of
    one of the found classes, each given by its conjugates' bitsets."""
    return any(bits & m == bits for orbit in found for m in orbit)


def _conj_orbits(maps: list[list[int]], subgroups: list[tuple]
                 ) -> list[list[tuple]]:
    """The orbits (table.orbits) that meet the given subgroups, each a
    sorted index tuple, under the elements with these conjugation maps."""
    return orbits(subgroups, lambda s: [tuple(sorted(map(m.__getitem__, s)))
                                        for m in maps])


def _normalizer_indices(tab, members) -> list[int]:
    """Element indices of the normalizer N of the subgroup with these
    members.  The orbit under conjugation gives |N| = |G| / |orbit|; its
    Schreier generators generate N, so they are closed one at a time, each
    only if not already in the closure, until the closure reaches |N|."""
    gen_idx = [tab.index[g.images] for g in tab.generators]
    maps = tab.conj_maps()
    members = tuple(sorted(members))
    transversal = {members: tab.identity_index}
    orbit = [members]
    edges = []              # (t_s, g, t_sg): Schreier generator t_s g t_sg^-1
    for s in orbit:
        c = transversal[s]
        for m, gi in zip(maps, gen_idx):
            t = tuple(sorted(map(m.__getitem__, s)))
            if t not in transversal:
                transversal[t] = tab.mult(c, gi)
                orbit.append(t)
            else:
                edges.append((c, gi, transversal[t]))
    order = tab.n // len(orbit)
    stab_gens: list[int] = []
    closure = [tab.identity_index]
    for c, gi, d in edges:
        if len(closure) == order:
            break
        sg = tab.mult(tab.mult(c, gi), tab.inv(d))
        if sg not in closure:
            stab_gens.append(sg)
            closure = tab.closure(stab_gens)
    assert len(closure) * len(orbit) == tab.n, "orbit-stabilizer mismatch"
    return closure


# ---------------------------------------------------------------------------
# Sylow subgroups and their overgroup intervals


def _sylow_indices(tab, p: int, full: int) -> list[int]:
    """A Sylow p-subgroup as element indices.

    Greedy absorption of p-elements, read off the conjugacy classes: while
    the current p-subgroup Q is not full, some p-element x (inside any
    Sylow overgroup of Q, e.g. in the normalizer-growth chain) satisfies
    that <Q, x> is a bigger p-group, so repeated passes terminate with a
    full Sylow subgroup.  Before <Q, x> is closed, x is dropped when some
    x * g, g among Q's generators, is not a p-element: one product and one
    class lookup each.  Every element of a p-group is a p-element, so the
    filter drops only an x whose closure would fail; the first x kept is
    the one the unfiltered climb keeps, and the Sylow subgroup is the same.
    """
    ct = conjugacy_classes(tab.group)
    p_element = [full % c.element_order == 0 for c in ct.classes]
    class_of = ct.class_of
    candidates = [i for i, c in enumerate(class_of)
                  if p_element[c] and i != tab.identity_index]
    gens: list[int] = []
    members = {tab.identity_index}
    while len(members) < full:
        grew = False
        for x in candidates:
            if x in members or not all(p_element[class_of[tab.mult(x, g)]]
                                       for g in gens):
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


def _interval_maximals(tab: GroupTable, sylow_members: list[int],
                       divisor: int) -> list[frozenset]:
    """The maximal members of the interval [P, G], P the given Sylow
    subgroup, cut down to the proper members of order dividing `divisor`
    (module docstring): the join closure of the one-step extensions
    <P, x>.  A random Schreier-Sims lower bound drops a candidate before
    any closure when it exceeds the divisor or reaches the order of a
    closed subgroup holding it."""
    bound = min(divisor, tab.n - 1)
    p_gens = (small_generating_indices(tab, sylow_members) or
              [tab.identity_index])
    proper = [(p_gens, frozenset(sylow_members))]
    closed = {proper[0][1]}           # every subgroup closed, kept or not

    def record(gens: list[int]) -> None:
        # <gens> lies in the least closed subgroup w holding gens, and is w
        # once its order reaches |w|
        w = min((w for w in closed if w.issuperset(gens)), key=len,
                default=None)
        most = bound if w is None else min(bound, len(w) - 1)
        if _order_lower_bound([tab.elements[i] for i in gens], most) > most:
            return
        members = tab.closure(gens, bound=bound)
        sub = frozenset(members or ())
        if members is not None and sub not in closed:
            closed.add(sub)
            if divisor % len(sub) == 0:
                proper.append((gens, sub))

    # scan double cosets P\G/P: <P, pxp'> = <P, x>, so one extension each;
    # every element of PxP lies in <P, x>, so its order must divide divisor
    ct = conjugacy_classes(tab.group)
    fits = [divisor % c.element_order == 0 for c in ct.classes]
    for x, pxp in tab.double_cosets(sylow_members):
        if all(fits[ct.class_of[y]] for y in pxp):
            record(p_gens + [x])
    frontier = proper[1:]
    while frontier:
        start = len(proper)
        for a_gens, a in frontier:
            for b_gens, b in proper[:]:
                if not (a <= b or b <= a):
                    record(a_gens + b_gens)
        frontier = proper[start:]
    return [w for _, w in proper if not any(w < v for _, v in proper)]


# ---------------------------------------------------------------------------
# the last step: maximal subgroups of order dividing |G|/rad|G|


class _ClassRec:
    """A conjugacy class of subgroups held by the last step's pool."""

    __slots__ = ("rep", "order", "orbit", "norm_gens")

    def __init__(self, tab, rep: tuple):
        self.rep = rep
        self.order = len(rep)
        self.orbit = _conj_orbits(tab.conj_maps(), [rep])[0]
        self.norm_gens: Optional[list[int]] = None

    def normalizer_gens(self, tab) -> list[int]:
        if self.norm_gens is None:
            self.norm_gens = small_generating_indices(
                tab, _normalizer_indices(tab, self.rep))
        return self.norm_gens


class _ClassPool:
    """Dedups subgroups, as sorted index tuples, into conjugacy classes: one
    dict maps every conjugate of a found class to the class's record."""

    def __init__(self, tab):
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


def _sylow_subgroup_classes(tab, p: int, sylow_members: list[int],
                            pool: _ClassPool) -> list[_ClassRec]:
    """All G-classes of proper subgroups of the given Sylow P (every
    p-subgroup is conjugate into it), by descent to maximal subgroups.
    Every subgroup of P is reached from P by such steps, and a conjugate of
    a step is a step, so descending from one member of each new G-class
    reaches every class."""
    out: list[_ClassRec] = []
    todo = [frozenset(sylow_members)]
    while todo:
        for m in _p_maximal_subgroups(tab, p, todo.pop()):
            new = pool.add(tuple(sorted(m)))
            if new is not None:
                out.append(new)
                todo.append(m)
    return out


def _p_maximal_subgroups(tab, p: int, h: frozenset) -> list[frozenset]:
    """The maximal subgroups of a p-group h: by Burnside's basis theorem,
    the preimages of the hyperplanes of the F_p-space h/Phi(h)."""
    gens = small_generating_indices(tab, sorted(h))
    # Phi(h) = h^p [h, h]; [h, h] is generated by the [g, x] with g among
    # h's generators, since modulo those every generator is central
    phi_gens = set()
    for x in h:
        phi_gens.add(functools.reduce(tab.mult, [x] * p))
        phi_gens.update(tab.mult(tab.mult(tab.inv(g), tab.inv(x)),
                                 tab.mult(g, x)) for g in gens)
    # coordinates in h/Phi over a basis drawn from the generators: a new
    # basis element g over the span S so far gives g^t * s coordinates (s, t)
    coords = dict.fromkeys(tab.closure(sorted(phi_gens)), ())
    for g in gens:
        if g not in coords:
            span, y, coords = list(coords.items()), tab.identity_index, {}
            for t in range(p):
                coords.update((tab.mult(y, s), v + (t,)) for s, v in span)
                y = tab.mult(y, g)
    d = len(coords[tab.identity_index])
    return [frozenset(x for x, v in coords.items()
                      if sum(map(operator.mul, f, v)) % p == 0)
            for f in itertools.product(range(p), repeat=d)
            if next(filter(None, f), 0) == 1]    # one per hyperplane


def _bounded_join(tab, a_gens: list[int], b: tuple, divisor: int
                  ) -> Optional[tuple]:
    """<a, b> when its order divides the divisor, else None; a_gens is
    small_generating_indices of a, which the caller keeps for a loop."""
    gens = a_gens + small_generating_indices(tab, b)
    closure = tab.closure(gens, bound=divisor)
    if closure is None or divisor % len(closure):
        return None
    return tuple(closure)


def _norm_orbit_reps(tab, norm_gens: list[int], targets: list[tuple]
                     ) -> list[tuple]:
    """One representative per orbit of the normalizer acting by conjugation
    on the target class (realizes double-coset conjugator enumeration)."""
    maps = [tab.elem_conj_map(gi) for gi in norm_gens]
    return [orbit[0] for orbit in _conj_orbits(maps, targets)]


def _certify_maximal(tab, members: tuple) -> bool:
    """Exact check: every one-step extension is the whole group."""
    gens = [tab.elements[i] for i in small_generating_indices(tab, members)]
    # <M, y> = <M, x> for y in MxM
    return all(generates(gens + [tab.elements[x]], tab.n)
               for x, _ in tab.double_cosets(members))


def _sweep_small_maximals(tab, divisor: int, sylows: dict[int, list[int]],
                          found: list[list[int]]) -> None:
    """Add to `found` the classes of maximal subgroups of order dividing
    divisor = |G|/rad|G| not in it yet, each as its conjugates' bitsets: the
    hyperplanes of a p-group, else the p-local step where it applies, else
    the join sweep (module docstring)."""
    if len(sylows) == 1:
        (p, members), = sylows.items()
        found.extend([tab.bits_of(m)] for m in
                     _p_maximal_subgroups(tab, p, frozenset(members)))
        return
    primes = _factorize(divisor)
    if len(primes) > 2 or _small_normal_closure(tab, divisor, primes):
        _join_sweep(tab, divisor, sylows, found)
        return
    pool = _ClassPool(tab)
    # |N_G(P)| = |G|/|orbit|, a multiple of |P|; largest first, so a
    # candidate that is not maximal lies in one walked and found before it
    recs = sorted((rec for p in primes
                   for rec in _sylow_subgroup_classes(tab, p, sylows[p], pool)
                   if len(rec.orbit) > 1
                   and divisor % (tab.n // len(rec.orbit)) == 0),
                  key=lambda r: len(r.orbit))
    for rec in recs:
        norm = _normalizer_indices(tab, rec.rep)
        if (not _inside(tab.bits_of(norm), found)
                and _certify_maximal(tab, norm)):
            found.append(_orbit_bits(tab, norm))


def _small_normal_closure(tab, divisor: int, primes) -> bool:
    """Whether some class of elements of prime order has a normal closure
    (the subgroup its members generate) of order dividing the divisor, whose
    prime factors are given; only a class of order p among them can."""
    ct = conjugacy_classes(tab.group)
    for c in ct.classes:
        if c.element_order in primes:
            closure = tab.closure(indices_of_bits(c.bits), bound=divisor)
            if closure is not None and divisor % len(closure) == 0:
                return True
    return False


def _join_sweep(tab, divisor: int, sylows: dict[int, list[int]],
                found: list[list[int]]) -> None:
    """The fallback of _sweep_small_maximals: the classes of order dividing
    the divisor, as iterated joins of p-subgroup classes, walked largest
    first; one is certified only when it lies in no found class, since a
    class that is not maximal lies in a class found at an interval or in a
    larger pool class, found before it."""
    pool = _ClassPool(tab)
    per_prime: dict[int, list[_ClassRec]] = {
        p: _sylow_subgroup_classes(tab, p, members, pool)
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
                    if divisor % math.lcm(rec.order, q_rec.order):
                        continue
                    # enumerate conjugators over the cheaper side's orbit
                    moving, fixed = sorted((rec, q_rec), key=lambda r: (
                        len(r.orbit) * r.order))
                    norm = fixed.normalizer_gens(tab)
                    fixed_gens = small_generating_indices(tab, fixed.rep)
                    for m in _norm_orbit_reps(tab, norm, moving.orbit):
                        j = _bounded_join(tab, fixed_gens, m, divisor)
                        added = pool.add(j) if j and j != fixed.rep else None
                        if added is not None:
                            new_recs.append((added, q))
        frontier = new_recs
    for rec in sorted(pool.all, key=lambda r: -r.order):
        if (not _inside(tab.bits_of(rec.rep), found)
                and _certify_maximal(tab, rec.rep)):
            found.append(list(map(tab.bits_of, rec.orbit)))


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

    sylows = {p: _sylow_indices(tab, p, p ** e) for p, e in fact.items()}
    found: list[list[int]] = []      # per class, its conjugates' bitsets
    divisor = G.order
    for p in sorted(fact, reverse=True):
        if len(sylows[p]) < G.order:
            # a member inside a found class is not maximal, or is that class
            for w in _interval_maximals(tab, sylows[p], divisor):
                if not _inside(tab.bits_of(w), found):
                    found.append(_orbit_bits(tab, w))
        divisor //= p
    _sweep_small_maximals(tab, divisor, sylows, found)

    classes = []
    for obits in found:
        rep_bits = min(obits)
        core = functools.reduce(operator.and_, obits)
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
