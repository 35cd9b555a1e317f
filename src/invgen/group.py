"""Permutation-group engine: stabilizer chains, order, membership, uniform
random elements, full enumeration, and direct powers.

The stabilizer chain is built by a deterministic Schreier-Sims: base points
are always the smallest point moved by the sifted residue that created the
level, orbits are explored breadth-first in point order, and generators are
processed in input order.  Equal inputs therefore always produce identical
chains, orders, element tables and random streams.

generates(gens, order) answers "does <gens> have this order?" for a caller
that guarantees every element of gens lies in a group of that order, i.e.
"does gens generate that group?".  It sifts gens and then product-replacement
random elements of <gens> into a chain without Schreier verification; the
product of that chain's orbit lengths is a lower bound on |<gens>|, so
reaching the order is a proven "yes".  After a fixed run of consecutive
elements sifting to the identity it falls back to the exact chain of
PermGroup(gens), which makes a "no" certain.  Its random generator is its
own, seeded from the generators' image tuples: it never draws from a
caller's generator, so seeded streams around it are unaffected.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .perm import Perm

DEFAULT_ENUM_CAP = 200_000       # largest group whose elements are listed
DEFAULT_LATTICE_CAP = 20_000     # largest group whose subgroups are searched

# generates(): product-replacement slots, and the run of consecutive random
# elements sifting to the identity after which the exact chain decides
_PR_SLOTS = 10
_PR_MISSES = 20


class CapExceeded(Exception):
    """An operation needed more elements / a bigger group than its cap allows."""


class _Level:
    __slots__ = ("base", "gens", "orbit", "transversal", "inv_transversal",
                 "verified")

    def __init__(self, base: int):
        self.base = base
        self.gens: list[Perm] = []      # generators first registered here
        self.orbit: list[int] = [base]
        self.transversal: dict[int, Perm] = {}
        self.inv_transversal: dict[int, Perm] = {}
        self.verified = False


class StabChain:
    """Deterministic stabilizer chain.

    Level i stores the generators that first stabilize the base prefix
    b_0..b_{i-1}; the group of level i is generated by everything stored at
    levels >= i, and its orbit/transversal are computed over that full set.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.levels: list[_Level] = []

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        n = 1
        for lv in self.levels:
            n *= len(lv.orbit)
        return n

    def contains(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise ValueError("degree mismatch")
        return self._sift_from(0, p).is_identity()

    # -- construction --------------------------------------------------------

    def extend(self, p: Perm) -> None:
        res = self._sift_from(0, p)
        if res.is_identity():
            return
        changed = self._register(res)
        self._close(changed)

    def _register(self, res: Perm) -> int:
        """Store a sifted residue at the level it belongs to; return it."""
        for i, lv in enumerate(self.levels):
            if res(lv.base) != lv.base:
                lv.gens.append(res)
                return i
        lv = _Level(min(res.moved_points()))
        lv.gens.append(res)
        self.levels.append(lv)
        return len(self.levels) - 1

    def _visible(self, i: int) -> list[Perm]:
        out = []
        for lv in self.levels[i:]:
            out.extend(lv.gens)
        return out

    def _recompute_orbit(self, i: int) -> None:
        lv = self.levels[i]
        ident = Perm.identity(self.degree)
        lv.transversal = {lv.base: ident}
        lv.inv_transversal = {lv.base: ident}
        lv.orbit = [lv.base]
        self._grow_orbit(i, 0, ())

    def _grow_orbit(self, i: int, closed: int, new: Sequence[Perm]) -> None:
        """Close level i's orbit under its visible generators, breadth-first,
        given that its first `closed` points are closed under all of them
        except those in `new`."""
        lv = self.levels[i]
        gens = self._visible(i)
        orbit, trans, inv = lv.orbit, lv.transversal, lv.inv_transversal
        k = 0
        while k < len(orbit):
            pt = orbit[k]
            t = trans[pt]
            for g in gens if k >= closed else new:
                img = g(pt)
                if img not in trans:
                    tg = t * g
                    trans[img] = tg
                    inv[img] = tg.inverse()
                    orbit.append(img)
            k += 1

    def _sift_from(self, level: int, p: Perm) -> Perm:
        for lv in self.levels[level:]:
            img = p(lv.base)
            if img == lv.base:
                continue
            t_inv = lv.inv_transversal.get(img)
            if t_inv is None:
                return p
            p = p * t_inv
        return p

    def _absorb(self, p: Perm) -> bool:
        """Store p's residue, if it has one, and extend the orbits of the
        levels it joins, without Schreier verification; say whether the
        chain grew.  Points already in an orbit keep their transversal
        elements, so a level's orbit order can differ from a recomputed one.
        """
        res = self._sift_from(0, p)
        if res.is_identity():
            return False
        for i in range(self._register(res) + 1):
            lv = self.levels[i]
            if lv.transversal:
                self._grow_orbit(i, len(lv.orbit), (res,))
            else:                         # the level res just opened
                self._recompute_orbit(i)
        return True

    def _close(self, dirty_from: int) -> None:
        """Fixpoint: every level's orbit is over its full visible generator
        set and every Schreier generator sifts to the identity.

        A registration at level m only invalidates levels <= m (their visible
        generator sets grew), so verification state of deeper levels is kept.
        """
        self._mark_dirty(dirty_from)
        while True:
            i = self._deepest_dirty()
            if i is None:
                return
            failure = self._verify_level(i)
            if failure is None:
                self.levels[i].verified = True
            else:
                self._mark_dirty(self._register(failure))

    def _mark_dirty(self, upto: int) -> None:
        for i in range(min(upto, len(self.levels) - 1), -1, -1):
            self._recompute_orbit(i)
            self.levels[i].verified = False

    def _deepest_dirty(self) -> Optional[int]:
        for i in range(len(self.levels) - 1, -1, -1):
            if not self.levels[i].verified:
                return i
        return None

    def _verify_level(self, i: int) -> Optional[Perm]:
        """Return a non-member Schreier residue of level i, or None."""
        lv = self.levels[i]
        gens = self._visible(i)
        for pt in lv.orbit:
            t = lv.transversal[pt]
            for g in gens:
                sch = t * g * lv.inv_transversal[g(pt)]
                if sch.is_identity():
                    continue
                res = self._sift_from(i + 1, sch)
                if not res.is_identity():
                    return res
        return None

    # -- sampling / enumeration ---------------------------------------------

    def random_element(self, rng: random.Random) -> Perm:
        """Exactly uniform: one independent transversal pick per base point."""
        result = Perm.identity(self.degree)
        for lv in reversed(self.levels):
            pick = lv.transversal[lv.orbit[rng.randrange(len(lv.orbit))]]
            result = result * pick
        return result

    def enumerate(self) -> list[Perm]:
        elems = [Perm.identity(self.degree)]
        for lv in reversed(self.levels):
            transversals = [lv.transversal[pt] for pt in lv.orbit]
            elems = [e * t for e in elems for t in transversals]
        return elems


class PermGroup:
    """A finite permutation group: generators plus a stabilizer chain.

    The generators and chain do not change after construction.  The element
    table and the structure in ``_cache`` are computed lazily on first use
    and stored on the object, so concurrent first uses from several threads
    are not safe.
    """

    def __init__(self, generators: Sequence[Perm], name: str = ""):
        gens = list(generators)
        if not gens:
            raise ValueError("need at least one generator (use the identity)")
        degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError("generators have mixed degrees")
        self.degree = degree
        self.generators = [g for g in gens if not g.is_identity()]
        self.name = name
        self.chain = StabChain(degree)
        for g in self.generators:
            self.chain.extend(g)
        self.order: int = self.chain.order()
        self._elements: Optional[list[Perm]] = None
        self._cache: dict = {}   # lazily computed structure (tables, classes)

    def __repr__(self) -> str:
        label = self.name or "PermGroup"
        return f"<{label}: degree {self.degree}, order {self.order}>"

    def contains(self, p: Perm) -> bool:
        return self.chain.contains(p)

    def random_element(self, rng: random.Random) -> Perm:
        return self.chain.random_element(rng)

    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    # -- element table ----------------------------------------------------

    def elements(self, cap: int = DEFAULT_ENUM_CAP) -> list[Perm]:
        """All elements, sorted by image tuple (identity first)."""
        if self.order > cap:
            raise CapExceeded(
                f"order {self.order} exceeds enumeration cap {cap}; "
                "use sampling-only paths")
        if self._elements is None:
            elems = self.chain.enumerate()
            elems.sort()
            self._elements = elems
        return self._elements


def generates(gens: Sequence[Perm], order: int) -> bool:
    """Does gens generate a group of the given order?

    The caller guarantees that every element of gens lies in a group of that
    order, so the question is whether gens generates that whole group.  The
    answer is exact both ways; the module docstring gives the method.
    """
    if not gens:
        return order == 1
    return _subgroup_if_proper(gens, order) is None


def _subgroup_if_proper(gens: Sequence[Perm], order: int
                        ) -> Optional[PermGroup]:
    """None when <gens> has the given order (same guarantee as generates),
    otherwise the exact PermGroup(gens), so that a caller that needs the
    proper subgroup does not build it again."""
    chain = StabChain(gens[0].degree)
    for g in gens:
        chain._absorb(g)
    slots = [g for g in gens if not g.is_identity()]
    if slots:
        slots = [slots[i % len(slots)]
                 for i in range(max(_PR_SLOTS, len(slots)))]
        rng = random.Random(hash(tuple(g.images for g in gens)))
        acc = Perm.identity(chain.degree)
        misses = 0
        while chain.order() < order and misses < _PR_MISSES:
            i = rng.randrange(len(slots))
            j = rng.randrange(len(slots) - 1)
            slots[i] = slots[i] * slots[j + (j >= i)]
            acc = acc * slots[i]
            misses = 0 if chain._absorb(acc) else misses + 1
    if chain.order() == order:
        return None
    exact = PermGroup(gens)
    return None if exact.order == order else exact


def group_from_generators(gens: Sequence[Perm], name: str = "") -> PermGroup:
    return PermGroup(gens, name=name)


def symmetric_group(n: int) -> PermGroup:
    if n == 1:
        return PermGroup([Perm.identity(1)], name="S1")
    gens = [Perm([2, 1] + list(range(3, n + 1)))]
    if n > 2:
        gens.append(Perm(list(range(2, n + 1)) + [1]))
    return PermGroup(gens, name=f"S{n}")


def alternating_group(n: int) -> PermGroup:
    if n < 3:
        return PermGroup([Perm.identity(max(n, 1))], name=f"A{n}")
    three = Perm([2, 3, 1] + list(range(4, n + 1)))
    if n == 3:
        return PermGroup([three], name="A3")
    if n % 2 == 1:
        big = Perm(list(range(2, n + 1)) + [1])
    else:
        big = Perm([1] + list(range(3, n + 1)) + [2])
    return PermGroup([three, big], name=f"A{n}")


def power_group(T: PermGroup, k: int) -> PermGroup:
    """Direct power T^k acting on k disjoint copies of T's points."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = T.degree
    gens = []
    for i in range(k):
        lo = i * n
        for g in T.generators or [T.identity()]:
            images = list(range(1, k * n + 1))
            for pt in range(1, n + 1):
                images[lo + pt - 1] = lo + g(pt)
            gens.append(Perm(images))
    if not gens:
        gens = [Perm.identity(k * n)]
    return PermGroup(gens, name=f"{T.name or 'T'}^{k}")


def embed_tuple(ts: Sequence[Perm], k: int) -> Perm:
    """The element (t_1, ..., t_k) of a direct power, on k disjoint blocks."""
    if len(ts) != k:
        raise ValueError("tuple length mismatch")
    n = ts[0].degree
    images = []
    for i, t in enumerate(ts):
        images.extend(i * n + t(pt) for pt in range(1, n + 1))
    return Perm(images)


def project_component(p: Perm, i: int, n: int) -> Perm:
    """Coordinate projection of a direct-power element to block i (0-based)."""
    return Perm(p(i * n + pt) - i * n for pt in range(1, n + 1))
