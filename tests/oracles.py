"""Independent brute-force oracles for the test suite.

Everything here deliberately avoids the library's stabilizer chains,
bitsets and incidence machinery: subgroups are plain frozensets of
permutations, closures are worklist products of plain 0-based image
tuples, conjugacy is tested by conjugating with every group element.  Slow but obviously correct.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, product

from invgen.perm import Perm


def _tuple(p: Perm) -> tuple:
    return tuple(i - 1 for i in p.images)


def _tuple_closure(gens: list[tuple], bound=None):
    """The subgroup generated by 0-based image tuples, by worklist products
    (x * g)[i] = g[x[i]]: the oracles multiply plain tuples, not Perms.
    With a bound, None as soon as more than `bound` members are found."""
    ident = tuple(range(len(gens[0])))
    members = {ident}
    work = [ident]
    while work:
        x = work.pop()
        for g in gens:
            y = tuple([g[i] for i in x])
            if y not in members:
                members.add(y)
                work.append(y)
        if bound is not None and len(members) > bound:
            return None
    return frozenset(members)


def naive_closure(gens, degree=None) -> frozenset:
    gens = [_tuple(g) for g in gens]
    if not gens:
        raise ValueError("need at least one permutation")
    return frozenset(Perm([i + 1 for i in x]) for x in _tuple_closure(gens))


def greedy_sylow_indices(elements, p: int, full: int) -> list[int]:
    """A Sylow p-subgroup, of order `full`, of the group whose elements are
    given in table order (identity first), as sorted indices: the greedy
    climb without any filter.  Pass over the nonidentity elements of order
    dividing `full` in index order and keep x whenever <Q, x> is again a
    p-group, until |Q| = full; each <Q, x> is a bounded tuple closure."""
    tuples = [_tuple(x) for x in elements]
    index = {t: i for i, t in enumerate(tuples)}
    candidates = [i for i, x in enumerate(elements)
                  if x.order() > 1 and full % x.order() == 0]
    gens: list[int] = []
    members = {0}
    while len(members) < full:
        grew = False
        for x in candidates:
            if x in members:
                continue
            trial = _tuple_closure([tuples[i] for i in gens + [x]], full)
            if trial is not None and full % len(trial) == 0:
                gens.append(x)
                members = {index[t] for t in trial}
                grew = True
                if len(members) == full:
                    break
        if not grew:
            raise AssertionError("greedy climb stalled")
    return sorted(members)


def naive_conjugacy_classes(elements) -> list[frozenset]:
    """Conjugation orbits via all conjugators; sorted by (size, least rep)."""
    elements = list(elements)
    remaining = set(elements)
    classes = []
    while remaining:
        x = min(remaining, key=lambda p: p.images)
        orbit = frozenset(g.inverse() * x * g for g in elements)
        classes.append(orbit)
        remaining -= orbit
    classes.sort(key=lambda c: (len(c), min(p.images for p in c)))
    return classes


def naive_subgroup_lattice(elements) -> set[frozenset]:
    """Every subgroup, by breadth-first single-element extensions from the
    trivial subgroup (reaches everything: each subgroup is a one-element
    extension of any of its maximal subgroups).  Each node carries the
    generator list it was built from, so the extension closures stay cheap.
    The search runs on 0-based image tuples; the result is in Perms.
    """
    perm_of = {_tuple(p): p for p in elements}
    ident = next(x for x in perm_of if x == tuple(range(len(x))))
    trivial = frozenset([ident])
    found: dict[frozenset, list] = {trivial: []}
    frontier = [trivial]
    while frontier:
        new = []
        for H in frontier:
            base_gens = found[H]
            for x in perm_of:
                if x in H:
                    continue
                K = _tuple_closure(base_gens + [x])
                if K not in found:
                    found[K] = base_gens + [x]
                    new.append(K)
        frontier = new
    return {frozenset(map(perm_of.__getitem__, H)) for H in found}


def naive_chief_series(elements, generators, lattice) -> list[tuple]:
    """(order, abelian) of each factor of the chief series that climbs from
    1, each step to the least (order, bits) normal subgroup minimal over the
    last.  `elements` is the group in table order and `lattice` its
    subgroups as (order, bits) records over those indices.  A subgroup is
    normal when every generator conjugates every member into it; a factor
    M/N is abelian when the commutator of every pair of members of M lies
    in N."""
    def members(r):
        return {x for i, x in enumerate(elements) if r.bits >> i & 1}

    def is_normal(r):
        H = members(r)
        return all(x.conjugate(g) in H for x in H for g in generators)

    normal = sorted(filter(is_normal, lattice), key=lambda r: (r.order, r.bits))
    out = []
    N = normal[0]
    while N.order < len(elements):
        above = [r for r in normal if r.bits != N.bits and r.bits | N.bits == r.bits]
        M = next(r for r in above
                 if not any(o.bits != r.bits and o.bits | r.bits == r.bits
                            for o in above))
        inside = members(N)
        M_members = members(M)
        abelian = all(x.inverse() * y.inverse() * x * y in inside
                      for x in M_members for y in M_members)
        out.append((M.order // N.order, abelian))
        N = M
    return out


def naive_maximal_classes(elements, lattice=None) -> list[list[frozenset]]:
    """Conjugacy classes of maximal subgroups from the naive lattice (built
    here unless given), each class sorted, classes ordered by (-order, size,
    least member)."""
    elements = list(elements)
    whole = frozenset(elements)
    if lattice is None:
        lattice = naive_subgroup_lattice(elements)
    proper = [H for H in lattice if H != whole]
    maximal = [H for H in proper
               if not any(H < K for K in proper if K != H)]
    classes = []
    seen = set()
    for H in maximal:
        if H in seen:
            continue
        orbit = {frozenset(g.inverse() * h * g for h in H) for g in elements}
        seen |= orbit
        classes.append(sorted(orbit, key=lambda s: sorted(p.images for p in s)))
    classes.sort(key=lambda c: (-len(c[0]), len(c),
                                min(sorted(p.images for p in s) for s in c)))
    return classes


def exhaustive_invariable_generation(G, elements) -> bool:
    """Direct transcription of the definition: every independent choice of
    conjugates must generate.  The first element may stay fixed, since
    conjugating the whole tuple does not change the generated order."""
    all_elements = G.elements()
    if not elements:
        return G.order == 1
    first = elements[0]
    rest = elements[1:]
    for choice in product(all_elements, repeat=len(rest)):
        gens = [first] + [p.conjugate(g) for p, g in zip(rest, choice)]
        gens = [p for p in gens if not p.is_identity()]
        if not gens:
            if G.order > 1:
                return False
            continue
        if len(_tuple_closure([_tuple(g) for g in gens])) != G.order:
            return False
    return True


def exhaustive_p_i(G, k: int) -> Fraction:
    """P_I(G, k) by enumerating every ordered k-tuple of group elements."""
    elements = G.elements()
    good = 0
    for tup in product(elements, repeat=k):
        if exhaustive_invariable_generation(G, list(tup)):
            good += 1
    return Fraction(good, len(elements) ** k)


def inclusion_exclusion(sets, class_sizes, order, ks=()
                        ) -> tuple[Fraction, list[Fraction]]:
    """(C(G), [P_I(G,k) for k in ks]) by inclusion-exclusion over the
    nonempty subsets S of the class bitsets of the unions of conjugates:

        1 - P_I(G,k) = sum of (-1)^(|S|+1) v_S^k,

    with v_S the density of the intersection of S.  C(G) is the sum over
    k >= 0 of 1 - P_I(G,k): the signed sum of 1 / (1 - v_S)."""
    weights: Counter = Counter()        # signed subset count per density
    for r in range(1, len(sets) + 1):
        for combo in combinations(sets, r):
            inter = combo[0]
            for s in combo[1:]:
                inter &= s
            covered = sum(size for i, size in enumerate(class_sizes)
                          if inter >> i & 1)
            weights[Fraction(covered, order)] += 1 if r % 2 else -1
    c = sum((w / (1 - v) for v, w in weights.items()), Fraction(0))
    p_i = [1 - sum((w * v ** k for v, w in weights.items()), Fraction(0))
           for k in ks]
    return c, p_i


def naive_cyclic_subgroup_classes(elements) -> int:
    """How many conjugacy classes of cyclic subgroups <x> there are, each
    subgroup the closure of x, conjugated by every element."""
    elements = list(elements)
    seen: set[frozenset] = set()
    count = 0
    for C in {naive_closure([x]) for x in elements}:
        if C not in seen:
            count += 1
            seen |= {frozenset(p.conjugate(g) for p in C) for g in elements}
    return count


def naive_fusion(reps, overgroup_elements) -> list[frozenset]:
    """Per class representative, the indices of the representatives that
    some element of the overgroup conjugates it to."""
    out = []
    for r in reps:
        image = {r.conjugate(a) for a in overgroup_elements}
        out.append(frozenset(j for j, s in enumerate(reps) if s in image))
    return out


def naive_class_tuple_orbits(elements, overgroup_elements, r: int) -> int:
    """Orbits of the overgroup, acting by conjugation on every coordinate
    at once, on r-tuples of the conjugacy classes of the group with these
    elements: tuples counted by their least image under every element."""
    classes = naive_conjugacy_classes(elements)
    where = {p: i for i, C in enumerate(classes) for p in C}
    actions = [[where[min(C).conjugate(a)] for C in classes]
               for a in overgroup_elements]
    return len({min(tuple(m[c] for c in t) for m in actions)
                for t in product(range(len(classes)), repeat=r)})


def naive_least_minimum_cover(kill_sets, num_columns):
    """The least (size, sorted rows) over every subset of rows whose kill
    sets cover all columns, or None when no subset does.  The subsets are
    the 2^m bitmasks over the m rows, each tested on its own."""
    full = (1 << num_columns) - 1
    best = None
    for mask in range(1 << len(kill_sets)):
        rows = [r for r in range(len(kill_sets)) if mask >> r & 1]
        covered = 0
        for r in rows:
            covered |= kill_sets[r]
        if covered == full and (best is None or (len(rows), rows) < best):
            best = (len(rows), rows)
    return best
