"""Exact invariable-generation probabilities and the Chebotarev invariant.

Everything runs over the distinct unions-of-conjugates of the maximal
subgroup classes, at class granularity and in exact rationals: conjugate
maximal subgroups share their union, and distinct classes can too, so the
family is deduplicated by the exact class bitset first.

Uniform draws drive an absorbing Markov chain.  Its state is the bitset of
distinct sets that hold every draw so far: a draw from class c moves s to
s & row(c), where row(c) marks the sets holding c, with probability
|c|/|G|, and the draws invariably generate once the state is 0.  P_I(G,k)
is the mass at state 0 after k steps, and C(G) = E[full] by first-step
analysis, E[0] = 0 and, summing over classes that move s or keep it,

    E[s] = (|G| + sum of |c| * E[s & row(c)]) / (|G| - sum of |c|).

Only the row intersections reachable from the full bitset are states.  The
tests check the chain against inclusion-exclusion over the distinct sets,
exhaustive enumeration and Monte Carlo.

The chain needs class-level data only, so the family is read off an
incidence profile by tilde_family, whatever built the profile:
build_profile from a group, or generation.profile_from_classes, the one
constructor of profiles, from class sizes and class incidences alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .generation import IncidenceProfile, build_profile, check_killable
from .group import CapExceeded, DEFAULT_LATTICE_CAP, PermGroup
from .maximal import maximal_subgroups
from .table import conjugacy_classes, orbits

CHAIN_CAP = 200_000             # most transitions the exact chain walks


@dataclass(frozen=True)
class DistinctTildeFamily:
    """The distinct class-bitsets among the unions of conjugates of maximal
    subgroup classes, each with its exact density."""

    order: int
    sets: tuple                      # distinct bitsets over profile rows
    densities: tuple                 # Fraction per set
    provenance: tuple                # per set: tuple of maximal-class labels
    class_sizes: tuple               # row sizes (for intersections)

    def __len__(self) -> int:
        return len(self.sets)


def tilde_family(profile: IncidenceProfile) -> DistinctTildeFamily:
    """The distinct columns of a profile, as bitsets over its rows, in
    increasing order, each with its density (its rows' sizes over the
    order) and the labels of the columns that share it, in column order.

    On a fused profile a set is a union of fused rows, and the chain below
    draws a fused row with the probability of its classes together.  A
    column that no row kills raises ValueError, as d_i_exact does: its
    set would hold every draw.
    """
    check_killable(profile)
    seen: dict[int, list[str]] = {}
    for j in range(profile.num_columns):
        column = sum(1 << r for r, row in enumerate(profile.rows)
                     if row >> j & 1)
        seen.setdefault(column, []).append(profile.column_labels[j])
    sets = sorted(seen)
    return DistinctTildeFamily(
        order=profile.order, sets=tuple(sets),
        densities=tuple(
            Fraction(sum(n for r, n in enumerate(profile.class_sizes)
                         if s >> r & 1), profile.order) for s in sets),
        provenance=tuple(tuple(seen[s]) for s in sets),
        class_sizes=profile.class_sizes)


def distinct_tilde_family(G: PermGroup, cap: int = DEFAULT_LATTICE_CAP
                          ) -> DistinctTildeFamily:
    return tilde_family(build_profile(G, cap=cap))


def _chain(family: DistinctTildeFamily) -> tuple[dict[int, int], list[int]]:
    """({row: summed class size}, the states reachable from the full
    bitset, fewest bits first).  row(c) has bit j when set j holds class c.
    The walk raises CapExceeded once its transitions, one per state and
    row, pass CHAIN_CAP, so a refused family costs at most the bound."""
    rows: dict[int, int] = {}
    for ci, size in enumerate(family.class_sizes):
        row = sum(1 << j for j, s in enumerate(family.sets) if s >> ci & 1)
        rows[row] = rows.get(row, 0) + size
    work = 0

    def images(s: int) -> list[int]:
        nonlocal work
        work += len(rows)
        if work > CHAIN_CAP:
            raise CapExceeded(f"the exact chain passes {CHAIN_CAP} "
                              "transitions; use the Monte Carlo estimator "
                              "instead")
        return [s & row for row in rows]
    states = orbits([(1 << len(family.sets)) - 1], images)[0]
    return rows, sorted(states, key=lambda s: (s.bit_count(), s))


def _hits(family: DistinctTildeFamily, upto_k: int) -> list[int]:
    """How many k-tuples of elements reach state 0, for k = 0..upto_k."""
    rows, _ = _chain(family)
    count = {(1 << len(family.sets)) - 1: 1}
    hits = [count.get(0, 0)]
    for _ in range(upto_k):
        step: dict[int, int] = {}
        for s, c in count.items():
            for row, size in rows.items():
                step[s & row] = step.get(s & row, 0) + c * size
        count = step
        hits.append(count.get(0, 0))
    return hits


def p_i_exact(family: DistinctTildeFamily, k: int) -> Fraction:
    """Exact probability that k uniform random elements invariably generate."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return Fraction(_hits(family, k)[k], family.order ** k)


def chebotarev_exact(family: DistinctTildeFamily) -> Fraction:
    """Expected number of uniform draws until invariable generation."""
    rows, states = _chain(family)
    n = family.order
    wait = {0: Fraction(0)}
    for s in states[1:]:
        stay = sum(size for row, size in rows.items() if s & row == s)
        wait[s] = sum((size * wait[s & row] for row, size in rows.items()
                       if s & row != s), Fraction(n)) / (n - stay)
    return wait[states[-1]]


def chebotarev_partial_sum(family: DistinctTildeFamily, upto_k: int
                           ) -> tuple[Fraction, Fraction]:
    """(sum of 1 - P_I(G,k) for k = 0..upto_k, bound on the omitted tail).

    1 - P_I(G,k) is at most the sum of v_W^k over the distinct sets W, so
    the tail after K is at most the sum of v_W^(K+1) / (1 - v_W).
    """
    if upto_k < 0:
        raise ValueError("upto_k must be >= 0")
    n = family.order
    partial = sum((1 - Fraction(h, n ** k)
                   for k, h in enumerate(_hits(family, upto_k))),
                  Fraction(0))
    tail_bound = sum((v ** (upto_k + 1) / (1 - v) for v in family.densities),
                     Fraction(0))
    return partial, tail_bound


@dataclass(frozen=True)
class SandwichReport:
    k: int
    max_v_pow_k: Fraction            # over maximal classes, not deduplicated
    miss_probability: Fraction       # 1 - P_I(G,k)
    sum_v_pow_k: Fraction
    lower_ok: bool
    upper_ok: bool


def p_i_sandwich_check(G: PermGroup, k: int, cap: int = DEFAULT_LATTICE_CAP
                       ) -> SandwichReport:
    """max_M v(M)^k <= 1 - P_I(G,k) <= sum_M v(M)^k, in exact rationals.

    Both sides range over maximal subgroup classes (the upper sum counts a
    shared union once per class, which only weakens it).  P_I(G,k) raises
    CapExceeded past CHAIN_CAP transitions, as in p_i_exact.
    """
    maxes = maximal_subgroups(G, cap=cap)
    miss = 1 - p_i_exact(distinct_tilde_family(G, cap=cap), k)
    max_term = max((mc.v ** k for mc in maxes), default=Fraction(0))
    sum_term = sum((mc.v ** k for mc in maxes), Fraction(0))
    return SandwichReport(k=k, max_v_pow_k=max_term, miss_probability=miss,
                          sum_v_pow_k=sum_term,
                          lower_ok=max_term <= miss, upper_ok=miss <= sum_term)


# ---------------------------------------------------------------------------
# Monte Carlo waiting time


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    trials: int
    seed: int


def chebotarev_mc(G: PermGroup, trials: int, seed: int,
                  profile: Optional[IncidenceProfile] = None,
                  cap: int = DEFAULT_LATTICE_CAP) -> McEstimate:
    """Seeded Monte Carlo estimate of the expected waiting time.

    Each trial draws uniform elements, maps them to conjugacy classes, and
    strikes out the maximal classes whose union contains every draw so far;
    the trial stops when none survive.  One generator, random.Random(seed),
    runs the trials in order.  A draw is getrandbits(k), k the bit length
    of |G|, redrawn while it is >= |G|: randrange(|G|)'s own rule, so the
    same stream of indices.  It is read as an index into the element table:
    indices and elements are in bijection, so a uniform index is a uniform
    element.  The seed must be >= 0, since Random seeds from |seed|.  A
    profile with a column that no row kills raises ValueError, as d_i_exact
    does: no trial would ever stop.  So does a profile that does not
    describe G: another order or group, rows that do not partition G's
    classes, or a row size that is not the sum of its classes' sizes.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if profile is None:
        profile = build_profile(G, cap=cap)
    check_killable(profile)
    ct = conjugacy_classes(G)
    listed = sorted(ci for m in profile.fused_members for ci in m)
    if (profile.order != G.order or profile.group not in (None, G)
            or listed != list(range(len(ct.classes)))
            or profile.class_sizes != tuple(sum(ct.classes[c].size for c in m)
                                            for m in profile.fused_members)):
        raise ValueError(f"profile does not describe {G.name or 'the group'}")
    full = (1 << profile.num_columns) - 1
    row_bits = [0] * len(ct.classes)
    for row, members in zip(profile.rows, profile.fused_members):
        for ci in members:
            row_bits[ci] = row
    rows = list(map(row_bits.__getitem__, ct.class_of))
    getrandbits = random.Random(seed).getrandbits
    n = G.order
    k = n.bit_length()
    counts = []
    for _ in range(trials):
        alive = full
        draws = 0
        while alive:
            draws += 1
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            alive &= rows[r]
        counts.append(draws)
    mean = sum(counts) / trials
    # one square per distinct count, summed in trial order: the same floats
    square = {c: (c - mean) ** 2 for c in set(counts)}
    var = (sum(map(square.__getitem__, counts)) / (trials - 1)
           if trials > 1 else 0.0)
    return McEstimate(mean=mean, std_error=math.sqrt(var / trials),
                      trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# growth-rate report


@dataclass(frozen=True)
class RatioReport:
    group_name: str
    order: int
    c_value: Optional[Fraction]       # exact when available
    c_float: float
    ratio_sqrt: float                 # C / sqrt(|G|)
    ratio_sqrt_log: Optional[float]   # C / sqrt(|G| ln |G|); None if |G| = 1


def theorem2_ratio_report(G: PermGroup, cap: int = DEFAULT_LATTICE_CAP
                          ) -> RatioReport:
    """C(G) against the square-root growth scale.

    Past CHAIN_CAP transitions, C(G) is a Monte Carlo estimate of 20,000
    trials at seed 1729.  No pass/fail here: the acceptance sweep asserts
    recorded constants for the catalog, since the true growth constant is
    not pinned down.
    """
    family = distinct_tilde_family(G, cap=cap)
    try:
        c_exact: Optional[Fraction] = chebotarev_exact(family)
        c_float = float(c_exact)
    except CapExceeded:
        c_exact = None
        c_float = chebotarev_mc(G, 20_000, 1729, cap=cap).mean
    order = G.order
    return RatioReport(group_name=G.name or "G", order=order,
                       c_value=c_exact, c_float=c_float,
                       ratio_sqrt=c_float / math.sqrt(order),
                       ratio_sqrt_log=c_float / math.sqrt(
                           order * math.log(order)) if order > 1 else None)
