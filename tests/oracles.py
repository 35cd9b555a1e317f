"""Independent brute-force oracles for the test suite.

Everything here deliberately avoids the library's stabilizer chains,
bitsets and incidence machinery: subgroups are plain frozensets of
permutations, closures are worklist products, conjugacy is tested by
conjugating with every group element.  Slow but obviously correct.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, product

from invgen.perm import Perm


def naive_closure(gens, degree=None) -> frozenset:
    gens = [g for g in gens]
    if not gens:
        raise ValueError("need at least one permutation")
    ident = Perm.identity(gens[0].degree)
    members = {ident}
    work = [ident]
    while work:
        x = work.pop()
        for g in gens:
            y = x * g
            if y not in members:
                members.add(y)
                work.append(y)
    return frozenset(members)


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
    """
    elements = list(elements)
    ident = next(p for p in elements if p.is_identity())
    trivial = frozenset([ident])
    found: dict[frozenset, list] = {trivial: []}
    frontier = [trivial]
    while frontier:
        new = []
        for H in frontier:
            base_gens = found[H]
            for x in elements:
                if x in H:
                    continue
                K = naive_closure(base_gens + [x])
                if K not in found:
                    found[K] = base_gens + [x]
                    new.append(K)
        frontier = new
    return set(found)


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
        if len(naive_closure(gens)) != G.order:
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
