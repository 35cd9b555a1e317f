"""Permutation-group engine: stabilizer chains, order, membership, uniform
random elements, full enumeration, and direct powers.

The stabilizer chain is built by a deterministic Schreier-Sims: base points
are always the smallest point moved by the sifted residue that created the
level, orbits are explored breadth-first in point order, and generators are
processed in input order.  Equal inputs therefore always produce identical
chains, orders, element tables and random streams.

The chain has one kernel, shared by the exact Schreier-Sims (PermGroup) and
the unverified chain of generates().  Inside it a point is 0-based and an
element is a Perm's own image string (perm.py): the chain reads the
strings of the Perms it is given and wraps the strings it returns, with
no conversion, and a product is one translate call on them.  Right-hand
factors are stored as tables: each stored generator, kept with its
inverse as a string, and each level's inverse transversal, the only
transversal sifting reads.  A new orbit point costs one product and one
padding, g^-1 * u with u the inverse transversal of the point it came
from, and a forward transversal element is one maketrans away.  Level i's
group fixes the i base points before it, so its orbit is complete once it
holds the other n - i points; the breadth-first search then stops, and a
new generator skips the level.

generates(gens, order) answers "does <gens> have this order?" for a caller
that guarantees every element of gens lies in a group of that order, i.e.
"does gens generate that group?".  One element g answers by its order
alone: <g> is cyclic of g's element order, so no chain is built.

Larger sets on n >= 8 points with order n!/2 or n! go first to Jordan's
test, since inside S_n only A_n and S_n have those orders.  An
intransitive <gens> is an exact "no".  A transitive <gens> holding an
element with a cycle of prime length p, n/2 < p < n - 2, contains A_n.
That element's power by the lcm of its other cycle lengths is a p-cycle c,
since no other length is a multiple of p, and <gens> is primitive: were c
to move a block of a block system, the block's p images, of at least 2
points each, would hold 2p > n points, and were c to fix every block, the
block meeting c's support would hold all p > n/2 of its points.  A
primitive group holding a p-cycle with p <= n - 3 contains A_n (Jordan's
theorem; Wielandt, Finite Permutation Groups, 1964, Thm 13.9).  So the
answer is "yes" for n!/2, and for n! "yes" exactly when some generator is
odd.  The test reads the generators, then up to _JORDAN_DRAWS
product-replacement elements, and otherwise leaves the set to the chain.

The chain's test sifts the set into a chain without Schreier verification;
the product of that chain's orbit lengths is a lower bound on |<gens>|, so
reaching the order is a proven "yes".  When the sifted gens fall short,
product-replacement random elements of <gens> are sifted in too, and after
a fixed run of consecutive elements sifting to the identity it falls back
to the exact chain of PermGroup(gens), which makes a "no" certain.  Both
tests draw their random elements from the same product-replacement stream,
each from its start.  Its random generator is its own, seeded from the
generators' image tuples, and seeded only when product replacement runs:
it never draws from a caller's generator, so seeded streams around it are
unaffected.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from operator import attrgetter
from typing import Optional, Sequence

from .perm import Perm, _IDENT, _fast_perm

ENUM_CAP = 200_000               # largest group whose elements are listed
DEFAULT_LATTICE_CAP = 20_000     # largest group whose subgroups are searched

# generates(): product-replacement slots, and the run of consecutive random
# elements sifting to the identity after which the exact chain decides
_PR_SLOTS = 10
_PR_MISSES = 20
# the product-replacement elements Jordan's test reads for a cycle in its
# window before the chain decides.  Over 2,000 conjugated alternating_pair(n)
# per n = 8..14 it missed once (A11); over about 1,800 generating random
# pairs per n, 5 times on A14, whose window holds 11 alone, and nowhere else
_JORDAN_DRAWS = 60


class CapExceeded(Exception):
    """An operation needed more elements / a bigger group than its cap allows."""


class _Level:
    __slots__ = ("base", "gens", "orbit", "inv_transversal")

    def __init__(self, base: int):
        self.base = base
        # generators first registered here: tables, with string inverses
        self.gens: list[tuple[bytes, bytes]] = []
        self.orbit: list[int] = [base]
        # indexed by point: the table of the element taking that point to
        # base, or None off the orbit; empty until the orbit is first computed
        self.inv_transversal: list[Optional[bytes]] = []


class StabChain:
    """Deterministic stabilizer chain over 0-based image strings.

    Level i stores the generators that first stabilize the base prefix
    b_0..b_{i-1}; the group of level i is generated by everything stored at
    levels >= i, and its orbit/transversal are computed over that full set.
    Points are 0-based and an element is a Perm's bytes string t, with t[p]
    the image of p, padded to a 256-byte table where it is a right-hand
    factor (module docstring).
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.levels: list[_Level] = []
        self._id = _IDENT[:degree]
        self._tail = _IDENT[degree:]    # pads an element to its table

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        n = 1
        for lv in self.levels:
            n *= len(lv.orbit)
        return n

    def contains(self, p: Perm) -> bool:
        return self._sift(p) == self._id

    def _sift(self, p: Perm) -> bytes:
        """p's residue; p must have the chain's degree."""
        if p.degree != self.degree:
            raise ValueError("degree mismatch")
        return self._sift_from(0, p.bytes)

    # -- construction --------------------------------------------------------

    def extend(self, p: Perm) -> None:
        res = self._sift(p)
        if res == self._id:
            return
        changed = self._register(res)
        self._close(changed)

    def _register(self, res: bytes) -> int:
        """Store a sifted residue, with its inverse, at the level it belongs
        to; return that level."""
        inverse = bytes.maketrans(res, self._id)[:self.degree]
        g = res + self._tail
        for i, lv in enumerate(self.levels):
            if res[lv.base] != lv.base:
                lv.gens.append((g, inverse))
                return i
        lv = _Level(next(p for p, q in enumerate(res) if p != q))
        lv.gens.append((g, inverse))
        self.levels.append(lv)
        return len(self.levels) - 1

    def _visible(self, i: int) -> list[tuple[bytes, bytes]]:
        out = []
        for lv in self.levels[i:]:
            out.extend(lv.gens)
        return out

    def _recompute_orbit(self, i: int) -> None:
        lv = self.levels[i]
        lv.inv_transversal = [None] * self.degree
        lv.inv_transversal[lv.base] = _IDENT
        lv.orbit = [lv.base]
        self._grow_orbit(i, 0, ())

    def _grow_orbit(self, i: int, closed: int,
                    new: Sequence[tuple[bytes, bytes]]) -> None:
        """Close level i's orbit under its visible generators, breadth-first,
        given that its first `closed` points are closed under all of them
        except those in `new`.  The search stops once the orbit holds
        degree - i points: level i's group fixes the i earlier base points."""
        lv = self.levels[i]
        orbit, inv, tail = lv.orbit, lv.inv_transversal, self._tail
        room = self.degree - i - len(orbit)
        if not room:
            return
        gens = self._visible(i)
        for k, pt in enumerate(orbit):          # also visits appended points
            for g, g_inv in gens if k >= closed else new:
                img = g[pt]
                if inv[img] is None:
                    inv[img] = g_inv.translate(inv[pt]) + tail
                    orbit.append(img)
                    room -= 1
                    if not room:
                        return

    def _sift_from(self, level: int, p: bytes) -> bytes:
        for lv in self.levels[level:]:
            img = p[lv.base]
            if img == lv.base:
                continue
            t_inv = lv.inv_transversal[img]
            if t_inv is None:
                return p
            p = p.translate(t_inv)
        return p

    def _absorb(self, res: bytes) -> bool:
        """Store a sifted residue, unless it is the identity, and extend the
        orbits of the levels it joins, without Schreier verification; say
        whether the chain grew.  Points already in an orbit keep their
        transversal elements, so a level's orbit order can differ from a
        recomputed one.
        """
        if res == self._id:
            return False
        at = self._register(res)
        new = self.levels[at].gens[-1:]
        for i, lv in enumerate(self.levels[:at + 1]):
            if not lv.inv_transversal:      # the level res just opened
                self._recompute_orbit(i)
            elif len(lv.orbit) < self.degree - i:
                self._grow_orbit(i, len(lv.orbit), new)
        return True

    def _close(self, m: int) -> None:
        """Fixpoint: every level's orbit is over its full visible generator
        set and every Schreier generator sifts to the identity, after a
        registration at level m.

        A registration at level m grows the visible generator sets of levels
        <= m only, and every deeper level is verified: a failing residue of
        level i registers deeper than i, and levels are verified deepest
        first.  So the orbits of levels <= m are recomputed and the levels
        verified downward from m, and a failure restarts at the level its
        residue joins.
        """
        while True:
            for i in range(m, -1, -1):
                self._recompute_orbit(i)
            failure = next(filter(None, map(self._verify_level,
                                            range(m, -1, -1))), None)
            if failure is None:
                return
            m = self._register(failure)

    def _verify_level(self, i: int) -> Optional[bytes]:
        """Return a non-member Schreier residue of level i, or None."""
        lv = self.levels[i]
        gens = self._visible(i)
        inv = lv.inv_transversal
        for pt in lv.orbit:
            t = bytes.maketrans(inv[pt], _IDENT)[:self.degree]
            for g, _ in gens:
                # t * g * inv_transversal[g(pt)]
                sch = t.translate(g).translate(inv[g[pt]])
                if sch == self._id:
                    continue
                res = self._sift_from(i + 1, sch)
                if res != self._id:
                    return res
        return None

    # -- sampling / enumeration ---------------------------------------------

    def random_element(self, rng: random.Random) -> Perm:
        """Exactly uniform: one independent transversal pick per base point.

        The picks are rng.randrange(len(orbit)) draws, deepest level first,
        each drawn as randrange draws it (getrandbits, redrawn while too
        large).  Read as a mixed-radix number with the first pick most
        significant, they make the code k of the result, which is
        ``enumerate()[k]``; their inverse tables multiply to its inverse.
        """
        getrandbits = rng.getrandbits
        result_inv = _IDENT
        for lv in reversed(self.levels):
            n = len(lv.orbit)
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            result_inv = lv.inv_transversal[lv.orbit[r]].translate(result_inv)
        return _fast_perm(bytes.maketrans(result_inv, _IDENT)[:self.degree])

    def enumerate(self) -> list[Perm]:
        """Every element, in code order: element k is the one random_element
        returns when its randrange picks make the code k."""
        elems = [self._id]
        for lv in reversed(self.levels):
            transversals = [bytes.maketrans(lv.inv_transversal[pt], _IDENT)
                            for pt in lv.orbit]
            products = []
            for e in elems:
                products += map(e.translate, transversals)
            elems = products
        return list(map(_fast_perm, elems))


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

    def elements(self) -> list[Perm]:
        """All elements, sorted by image tuple (identity first).  A group
        of more than ENUM_CAP elements raises CapExceeded."""
        if self.order > ENUM_CAP:
            raise CapExceeded(
                f"order {self.order} exceeds enumeration cap {ENUM_CAP}; "
                "use sampling-only paths")
        if self._elements is None:
            elems = self.chain.enumerate()
            elems.sort(key=attrgetter("bytes"))    # as Perm.__lt__, in C
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
    if len(gens) == 1:                  # <g> is cyclic of g's order
        return gens[0].order() == order
    verdict = _jordan(gens, order)
    if verdict is not None:
        return verdict
    return (_order_lower_bound(gens, order - 1) == order
            or PermGroup(gens).order == order)


def _jordan(gens: Sequence[Perm], order: int) -> Optional[bool]:
    """Jordan's test (module docstring): the verdict when gens lie in A_n
    or S_n, n >= 8, and it settles them; otherwise None."""
    n = gens[0].degree
    if n < 8:
        return None
    full = math.factorial(n)
    if order != full and order * 2 != full:
        return None
    strings = [g.bytes for g in gens]
    if any(len(s) != n for s in strings):
        raise ValueError("generators have mixed degrees")
    seen = bytearray(n)
    seen[0] = 1
    orbit = [0]
    for pt in orbit:
        for s in strings:
            if not seen[s[pt]]:
                seen[s[pt]] = 1
                orbit.append(s[pt])
    if len(orbit) < n:
        return False
    window = _jordan_window(n)
    drawn = itertools.islice(_product_replacement(gens), _JORDAN_DRAWS)
    for x in itertools.chain(gens, map(_fast_perm, drawn)):
        if any(len(c) in window for c in x.cycles()):
            return order != full or not all(g.is_even() for g in gens)
    return None


@functools.cache
def _jordan_window(n: int) -> frozenset:
    """The primes p with n/2 < p < n - 2."""
    return frozenset(p for p in range(n // 2 + 1, n - 2)
                     if all(p % d for d in range(2, math.isqrt(p) + 1)))


def _product_replacement(gens: Sequence[Perm]):
    """Product-replacement random elements of <gens>, as image strings, one
    per step, without end: at least _PR_SLOTS slots (the non-identity gens,
    repeated) and an accumulator that each step multiplies by the slot it
    replaced.  It yields nothing when every generator is the identity, and
    seeds its random generator at the first element drawn."""
    tail = _IDENT[gens[0].degree:]
    slots = [g.bytes + tail for g in gens if not g.is_identity()]
    if not slots:
        return
    n = max(_PR_SLOTS, len(slots))
    slots = [slots[i % len(slots)] for i in range(n)]
    # randrange(n) and randrange(n - 1), drawn as randrange draws them;
    # image tuples, unlike bytes, hash alike in every process
    getrandbits = random.Random(hash(tuple(g.images for g in gens))
                                ).getrandbits
    k, k1 = n.bit_length(), (n - 1).bit_length()
    acc = _IDENT[:gens[0].degree]
    while True:
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        j = getrandbits(k1)
        while j >= n - 1:
            j = getrandbits(k1)
        slots[i] = slots[i].translate(slots[j + (j >= i)])
        acc = acc.translate(slots[i])
        yield acc


def _order_lower_bound(gens: Sequence[Perm], bound: int) -> int:
    """A lower bound on |<gens>|, from sifting gens and then
    product-replacement random elements of <gens> into an unverified chain;
    it stops as soon as the bound is exceeded, or after _PR_MISSES
    consecutive elements sift to the identity.  When gens alone exceed the
    bound, no random generator is seeded."""
    chain = StabChain(gens[0].degree)
    for g in gens:
        chain._absorb(chain._sift(g))
    order = chain.order()
    if order > bound:
        return order
    misses = 0
    for acc in _product_replacement(gens):
        if chain._absorb(chain._sift_from(0, acc)):
            order, misses = chain.order(), 0
            if order > bound:
                break
        else:
            misses += 1
            if misses == _PR_MISSES:
                break
    return order


def group_from_generators(gens: Sequence[Perm], name: str = "") -> PermGroup:
    return PermGroup(gens, name=name)


def symmetric_group(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return PermGroup([Perm.identity(1)], name="S1")
    gens = [Perm([2, 1] + list(range(3, n + 1)))]
    if n > 2:
        gens.append(Perm(list(range(2, n + 1)) + [1]))
    return PermGroup(gens, name=f"S{n}")


def alternating_group(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n < 3:
        return PermGroup([Perm.identity(n)], name=f"A{n}")
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
    e = T.identity()
    gens = [embed_tuple([e] * i + [g] + [e] * (k - 1 - i), k)
            for i in range(k) for g in T.generators or [e]]
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
