"""Exact invariable-generation probabilities and the Chebotarev invariant.

Everything runs over the distinct unions-of-conjugates of the maximal
subgroup classes, at class granularity and in exact rationals: conjugate
maximal subgroups share their union, and distinct classes can too, so the
family is deduplicated by the exact class bitset before the subset sums.

The waiting-time identity behind the closed form: if N is the number of
uniform draws until the drawn set invariably generates, then
E[N] = sum over k >= 0 of (1 - P_I(G,k)), and by inclusion-exclusion over
the distinct unions W (with density v_W),

    1 - P_I(G,k) = sum over nonempty S of (-1)^(|S|+1) * v_S^k,

with v_S the density of the intersection of S.  Summing the geometric
series in k gives C(G) as a finite signed sum of 1/(1 - v_S).  This form
is validated against exhaustive and Monte Carlo oracles in the tests, not
taken on faith.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .generation import IncidenceProfile, build_profile, check_killable
from .group import DEFAULT_LATTICE_CAP, PermGroup
from .maximal import maximal_subgroups
from .table import conjugacy_classes, indices_of_bits

DEFAULT_SUBSET_CAP = 24


@dataclass(frozen=True)
class DistinctTildeFamily:
    """The distinct class-bitsets among the unions of conjugates of maximal
    subgroup classes, each with its exact density."""

    group: PermGroup
    sets: tuple                      # distinct class bitsets
    densities: tuple                 # Fraction per set
    provenance: tuple                # per set: tuple of maximal-class labels
    class_sizes: tuple               # plain class sizes (for intersections)

    def __len__(self) -> int:
        return len(self.sets)


def distinct_tilde_family(G: PermGroup, cap: int = DEFAULT_LATTICE_CAP
                          ) -> DistinctTildeFamily:
    ct = conjugacy_classes(G)
    sizes = tuple(c.size for c in ct.classes)
    seen: dict[int, list[str]] = {}
    for mc in maximal_subgroups(G, cap=cap):
        seen.setdefault(mc.mtilde_class_bits, []).append(mc.label)
    sets = sorted(seen)
    dens = []
    for s in sets:
        covered = sum(sizes[ci] for ci in indices_of_bits(s))
        d = Fraction(covered, G.order)
        assert d < 1, "union of conjugates of a proper subgroup is proper"
        dens.append(d)
    return DistinctTildeFamily(
        group=G, sets=tuple(sets), densities=tuple(dens),
        provenance=tuple(tuple(seen[s]) for s in sets), class_sizes=sizes)


def _subset_densities(family: DistinctTildeFamily, cap: int
                      ) -> list[tuple[int, Fraction]]:
    """(popcount, density of the intersection) for every nonempty subset."""
    m = len(family.sets)
    if m > cap:
        raise ValueError(
            f"{m} distinct sets exceed the subset cap {cap}; "
            "use the Monte Carlo estimator instead")
    order = family.group.order
    sizes = family.class_sizes
    out: list[tuple[int, Fraction]] = [(0, Fraction(1))] * (1 << m)
    inter: list[int] = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        bits = family.sets[i] if rest == 0 else inter[rest] & family.sets[i]
        inter[mask] = bits
        covered = sum(sizes[ci] for ci in indices_of_bits(bits))
        out[mask] = (mask.bit_count(), Fraction(covered, order))
    return out[1:]


def p_i_exact(family: DistinctTildeFamily, k: int,
              cap: int = DEFAULT_SUBSET_CAP) -> Fraction:
    """Exact probability that k uniform random elements invariably generate."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if len(family.sets) == 0:
        return Fraction(1)          # trivial group
    miss = Fraction(0)
    for popcount, v in _subset_densities(family, cap):
        term = v ** k
        miss += term if popcount % 2 == 1 else -term
    return 1 - miss


def chebotarev_exact(family: DistinctTildeFamily,
                     cap: int = DEFAULT_SUBSET_CAP) -> Fraction:
    """Expected number of uniform draws until invariable generation."""
    if len(family.sets) == 0:
        return Fraction(0)          # trivial group generates vacuously
    total = Fraction(0)
    for popcount, v in _subset_densities(family, cap):
        term = 1 / (1 - v)
        total += term if popcount % 2 == 1 else -term
    return total


def chebotarev_partial_sum(family: DistinctTildeFamily, upto_k: int,
                           cap: int = DEFAULT_SUBSET_CAP
                           ) -> tuple[Fraction, Fraction]:
    """(sum of 1 - P_I(G,k) for k = 0..upto_k, bound on the omitted tail).

    The tail after K is at most the sum of v_S^(K+1) / (1 - v_S) over odd
    subsets, and the partial sum plus the signed tail equals the closed
    form exactly; the bound is what the tests assert against.
    """
    subsets = _subset_densities(family, cap)
    partial = Fraction(0)
    for k in range(upto_k + 1):
        miss = Fraction(0)
        for popcount, v in subsets:
            term = v ** k
            miss += term if popcount % 2 == 1 else -term
        partial += miss
    tail_bound = Fraction(0)
    for popcount, v in subsets:
        if v < 1:
            tail_bound += v ** (upto_k + 1) / (1 - v)
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
    shared union once per class, which only weakens it).
    """
    maxes = maximal_subgroups(G, cap=cap)
    family = distinct_tilde_family(G, cap=cap)
    miss = 1 - p_i_exact(family, k)
    if maxes:
        max_term = max(mc.v ** k for mc in maxes)
        sum_term = sum((mc.v ** k for mc in maxes), Fraction(0))
    else:
        max_term = Fraction(0)
        sum_term = Fraction(0)
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
    runs the trials in order.  A draw is one randrange(|G|) call, read as an
    index into the element table: indices and elements are in bijection, so
    a uniform index is a uniform element.  The seed must be >= 0, since
    Random seeds from |seed|.  A profile with a column that no row kills
    raises ValueError, as d_i_exact does: no trial would ever stop.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if profile is None:
        profile = build_profile(G, cap=cap)
    check_killable(profile)
    ct = conjugacy_classes(G)
    full = (1 << profile.num_columns) - 1
    row_bits = [0] * len(ct.classes)
    for row, members in zip(profile.rows, profile.fused_members):
        for ci in members:
            row_bits[ci] = row
    rows = [row_bits[c] for c in ct.class_of]
    randrange = random.Random(seed).randrange
    n = G.order
    counts = []
    for _ in range(trials):
        alive = full
        draws = 0
        while alive:
            draws += 1
            alive &= rows[randrange(n)]
        counts.append(draws)
    mean = sum(counts) / trials
    var = sum((c - mean) ** 2 for c in counts) / (trials - 1) if trials > 1 else 0.0
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
    ratio_sqrt_log: float             # C / sqrt(|G| ln |G|)


def theorem2_ratio_report(G: PermGroup, cap: int = DEFAULT_LATTICE_CAP,
                          subset_cap: int = DEFAULT_SUBSET_CAP,
                          mc_trials: int = 20_000, mc_seed: int = 1729
                          ) -> RatioReport:
    """C(G) against the square-root growth scale.

    No pass/fail here: the acceptance sweep asserts recorded constants for
    the catalog, since the true growth constant is not pinned down.
    """
    family = distinct_tilde_family(G, cap=cap)
    try:
        c_exact: Optional[Fraction] = chebotarev_exact(family, cap=subset_cap)
        c_float = float(c_exact)
    except ValueError:
        c_exact = None
        c_float = chebotarev_mc(G, mc_trials, mc_seed, cap=cap).mean
    order = G.order
    denom = math.sqrt(order)
    denom_log = math.sqrt(order * math.log(order)) if order > 1 else float("nan")
    return RatioReport(group_name=G.name or "G", order=order,
                       c_value=c_exact, c_float=c_float,
                       ratio_sqrt=c_float / denom,
                       ratio_sqrt_log=c_float / denom_log)
