"""The invariable-generation test as executable combinatorics.

A set of conjugacy classes invariably generates exactly when, for every
maximal subgroup class M, some chosen class avoids the union of conjugates
of M.  The incidence profile records that relation as a bit matrix (rows:
conjugacy classes, columns: maximal classes), after which the test is pure
bit logic, and the minimal invariable generating number d_I is an exact
minimum set cover over the per-class "kill sets".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .group import DEFAULT_LATTICE_CAP, PermGroup, generates
from .maximal import maximal_subgroups
from .perm import Perm
from .structure import FusionMap, chief_series
from .table import conjugacy_classes, group_table


@dataclass(frozen=True)
class IncidenceProfile:
    """Rows are (possibly fused) conjugacy classes, columns are maximal
    subgroup classes; entry 1 means the class lies inside the union of
    conjugates of that maximal subgroup."""

    group: PermGroup
    rows: tuple                # row i: bitset over columns with entry 1
    kill: tuple                # row i: complement bitset (columns killed)
    class_sizes: tuple
    class_labels: tuple
    column_labels: tuple
    maximal_classes: tuple     # the MaximalClass records, column order
    fused_members: tuple       # row i: tuple of plain class indices
    num_columns: int

    def row_of_label(self, label: str) -> int:
        return self.class_labels.index(label)


def build_profile(G: PermGroup, fusion: Optional[FusionMap] = None,
                  cap: int = DEFAULT_LATTICE_CAP) -> IncidenceProfile:
    """The class-versus-maximal-class incidence matrix of G.

    With a fusion map, rows are the fused classes and a fused row meets a
    maximal class if any constituent class does (a twisted conjugate landing
    inside the union defeats the whole fused class).
    """
    ct = conjugacy_classes(G)
    maxes = maximal_subgroups(G, cap=cap)
    ncols = len(maxes)
    full = (1 << ncols) - 1
    plain_rows = []
    for ci in range(len(ct.classes)):
        row = 0
        for mi, mc in enumerate(maxes):
            if (mc.mtilde_class_bits >> ci) & 1:
                row |= 1 << mi
        plain_rows.append(row)
    if fusion is None:
        groups = [(ci,) for ci in range(len(ct.classes))]
    else:
        if fusion.group is not G:
            raise ValueError("fusion map belongs to a different group")
        groups = [tuple(members) for members in fusion.fused_classes]
    rows = []
    labels = []
    sizes = []
    for members in groups:
        row = 0
        for ci in members:
            row |= plain_rows[ci]
        rows.append(row)
        labels.append("+".join(ct.classes[ci].label for ci in members))
        sizes.append(sum(ct.classes[ci].size for ci in members))
    return IncidenceProfile(
        group=G,
        rows=tuple(rows),
        kill=tuple(full & ~r for r in rows),
        class_sizes=tuple(sizes),
        class_labels=tuple(labels),
        column_labels=tuple(mc.label for mc in maxes),
        maximal_classes=tuple(maxes),
        fused_members=tuple(groups),
        num_columns=ncols)


def invariably_generates(profile: IncidenceProfile,
                         class_indices: Sequence[int]) -> bool:
    """True iff every maximal class is avoided by some chosen class.

    The argument is a multiset of row indices; duplicates are allowed but
    never help.  With no maximal classes at all (the trivial group) any
    set, including the empty one, vacuously generates.
    """
    full = (1 << profile.num_columns) - 1
    covered = 0
    for ci in class_indices:
        covered |= profile.kill[ci]
    return covered == full


def invariably_generates_elements(profile: IncidenceProfile,
                                  elements: Sequence[Perm]) -> bool:
    """Element-level wrapper: map elements to their (fused) rows."""
    return invariably_generates(profile,
                                [profile_row_of(profile, p) for p in elements])


def profile_row_of(profile: IncidenceProfile, p: Perm) -> int:
    ct = conjugacy_classes(profile.group)
    ci = ct.class_of_element(p)
    for ri, members in enumerate(profile.fused_members):
        if ci in members:
            return ri
    raise ValueError("element class missing from profile")


# ---------------------------------------------------------------------------
# exact minimal invariable generating number


def d_i_exact(profile: IncidenceProfile) -> tuple[int, list[int]]:
    """Exact minimum cover of all maximal-class columns by kill sets.

    Branch and bound: best-first on the column with fewest killers, with a
    greedy upper bound and a counting lower bound; ties explored in
    canonical class order, so the witness is the lexicographically least
    among minimum covers.
    """
    ncols = profile.num_columns
    full = (1 << ncols) - 1
    kills = profile.kill
    nrows = len(kills)
    if full == 0:
        return 0, []
    killers_of_col = [[r for r in range(nrows) if (kills[r] >> c) & 1]
                      for c in range(ncols)]
    for c in range(ncols):
        if not killers_of_col[c]:
            raise ValueError(f"column {c} cannot be killed; "
                             "no set invariably generates")

    # greedy upper bound
    def greedy() -> list[int]:
        chosen: list[int] = []
        covered = 0
        while covered != full:
            best = max(range(nrows),
                       key=lambda r: ((kills[r] & ~covered).bit_count(), -r))
            if not kills[best] & ~covered:
                break
            chosen.append(best)
            covered |= kills[best]
        return chosen

    best_witness = sorted(greedy())
    best_size = len(best_witness) if invariably_generates(profile, best_witness) \
        else nrows + 1

    max_kill = max((k.bit_count() for k in kills), default=0)

    def dfs(covered: int, chosen: list[int]) -> None:
        nonlocal best_size, best_witness
        if covered == full:
            cand = sorted(chosen)
            if len(cand) < best_size or (len(cand) == best_size
                                         and cand < best_witness):
                best_size = len(cand)
                best_witness = cand
            return
        remaining = (full & ~covered).bit_count()
        if len(chosen) + math.ceil(remaining / max_kill) > best_size:
            return
        # branch on the uncovered column with fewest killers
        target = min((c for c in range(ncols) if not (covered >> c) & 1),
                     key=lambda c: len(killers_of_col[c]))
        for r in killers_of_col[target]:
            if r in chosen:
                continue
            dfs(covered | kills[r], chosen + [r])

    dfs(0, [])
    assert invariably_generates(profile, best_witness)
    return best_size, best_witness


# ---------------------------------------------------------------------------
# bounds


def class_count_bounds(G: PermGroup, cap: int = DEFAULT_LATTICE_CAP
                       ) -> tuple[int, int]:
    """(number of conjugacy classes, number of classes of cyclic subgroups).

    Two cyclic subgroups are conjugate iff some coprime power of one
    generator is conjugate to the other, so the cyclic count is a coarsening
    of the element classes; both bound d_I from above.
    """
    ct = conjugacy_classes(G)
    k = len(ct.classes)
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for ci, c in enumerate(ct.classes):
        o = c.element_order
        for e in range(2, o):
            if math.gcd(e, o) == 1:
                union(ci, ct.class_of_element(c.rep ** e))
    cyclic = len({find(i) for i in range(k)})
    profile = build_profile(G, cap=cap)
    d_i, _ = d_i_exact(profile)
    assert d_i <= cyclic <= k
    return k, cyclic


@dataclass(frozen=True)
class ChiefBoundReport:
    d_i: int
    witness_labels: tuple
    a: int
    b: int
    a_plus_2b: int
    log2_order: float
    within_chief_bound: bool
    within_log2_bound: bool


def chief_bound_check(G: PermGroup, cap: int = DEFAULT_LATTICE_CAP
                      ) -> ChiefBoundReport:
    """d_I against the chief-series bound a + 2b and against log2|G|."""
    profile = build_profile(G, cap=cap)
    d_i, witness = d_i_exact(profile)
    series = chief_series(G)
    a2b = series.a + 2 * series.b
    return ChiefBoundReport(
        d_i=d_i,
        witness_labels=tuple(profile.class_labels[r] for r in witness),
        a=series.a, b=series.b, a_plus_2b=a2b,
        log2_order=math.log2(G.order),
        within_chief_bound=d_i <= a2b,
        within_log2_bound=2 ** d_i <= G.order)


# ---------------------------------------------------------------------------
# the nilpotency dichotomy, constructively


def find_noninvariable_generating_set(
        G: PermGroup, cap: int = DEFAULT_LATTICE_CAP
) -> Optional[tuple[list[Perm], list[Perm]]]:
    """For non-nilpotent G, a generating set X and a similar set Y with
    <Y> proper: take a non-normal maximal subgroup M, a conjugate element
    x in M^g \\ M, and let X = M + [x]; replacing x by its pullback lands
    back inside M.  Nilpotent groups have no such pair (every maximal
    subgroup is normal) and None is returned.
    """
    maxes = maximal_subgroups(G, cap=cap)
    target = next((mc for mc in maxes if mc.class_size > 1), None)
    if target is None:
        return None
    tab = group_table(G)
    m_members = set(target.member_indices())
    m_bits = target.rep_bits
    # find a conjugating generator word moving M off itself
    maps = tab.conj_maps()
    gens = G.generators
    conj_bits = m_bits
    word: list[Perm] = []
    for g, m in zip(gens, maps):
        moved = 0
        for i in target.member_indices():
            moved |= 1 << m[i]
        if moved != m_bits:
            conj_bits = moved
            word = [g]
            break
    assert word, "non-normal class admits a moving generator"
    g = word[0]
    x_idx = next(i for i in range(tab.n)
                 if (conj_bits >> i) & 1 and i not in m_members)
    x = tab.elements[x_idx]
    m_perms = [tab.elements[i] for i in sorted(m_members)]
    X = m_perms + [x]
    y = x.conjugate(g.inverse())      # pulls x back into M
    assert tab.index[y.images] in m_members
    Y = m_perms + [y]
    assert generates(X, G.order), "X generates G"
    assert generates(Y, target.order), "Y stays inside M"
    return X, Y


# ---------------------------------------------------------------------------
# randomized one-sided refuter for groups past the exact caps


@dataclass(frozen=True)
class RefuterVerdict:
    refuted: bool
    trials_run: int
    failing_conjugators: Optional[tuple] = None

    def __str__(self) -> str:
        if self.refuted:
            return f"REFUTED(trial {self.trials_run})"
        return f"UNREFUTED({self.trials_run} trials)"


def invgen_sample_refuter(G: PermGroup, elements: Sequence[Perm],
                          trials: int, rng: random.Random) -> RefuterVerdict:
    """Random search for conjugators making the set fail to generate.

    One-sided: REFUTED certificates non-invariable-generation with concrete
    conjugators; UNREFUTED only reports survival of the given trials.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for p in elements:
        if not G.contains(p):
            raise ValueError("element not in the group")
    for t in range(1, trials + 1):
        conjugators = [G.random_element(rng) for _ in elements]
        twisted = [p.conjugate(g) for p, g in zip(elements, conjugators)]
        if not generates(twisted, G.order):
            return RefuterVerdict(refuted=True, trials_run=t,
                                  failing_conjugators=tuple(conjugators))
    return RefuterVerdict(refuted=False, trials_run=trials)
