"""The invariable-generation test as executable combinatorics.

A set of conjugacy classes invariably generates exactly when, for every
maximal subgroup class M, some chosen class avoids the union of conjugates
of M.  The incidence profile records that relation as a bit matrix (rows:
conjugacy classes, columns: maximal classes), after which the test is pure
bit logic, and the minimal invariable generating number d_I is an exact
minimum set cover over the per-class "kill sets".

The profile needs class-level data only: the class sizes and, per maximal
class, the classes that meet it.  profile_from_classes is the one
constructor that lays the matrix out.  build_profile feeds it a group's
conjugacy and maximal classes, and class data from elsewhere (cycle types,
character tables) can be fed to it directly.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .group import DEFAULT_LATTICE_CAP, PermGroup, generates
from .maximal import maximal_subgroups
from .perm import Perm
from .structure import FusionMap, chief_series
from .table import conjugacy_classes, group_table, orbits


@dataclass(frozen=True)
class IncidenceProfile:
    """Rows are (possibly fused) conjugacy classes, columns are maximal
    subgroup classes; entry 1 means the class lies inside the union of
    conjugates of that maximal subgroup."""

    order: int
    rows: tuple                # row i: bitset over columns with entry 1
    kill: tuple                # row i: complement bitset (columns killed)
    class_sizes: tuple
    class_labels: tuple
    column_labels: tuple
    fused_members: tuple       # row i: tuple of plain class indices
    num_columns: int
    group: Optional[PermGroup] = None   # for profile_row_of; None from classes

    def row_of_label(self, label: str) -> int:
        return self.class_labels.index(label)


def profile_from_classes(order: int, class_sizes: Sequence[int],
                         class_labels: Sequence[str], columns: Sequence[int],
                         column_labels: Sequence[str]) -> IncidenceProfile:
    """The incidence profile from class-level data alone.

    Row r is a class of class_sizes[r] elements, and column j, a bitset
    over the rows, marks the classes that meet the j-th maximal class (lie
    in the union of its conjugates).  This is the one constructor that lays
    out rows, kill sets and the column count.  Each row is its own plain
    class (chebotarev_mc reads row r as class r of the group it draws
    from), and no group is kept, so profile_row_of does not apply.
    """
    if sum(class_sizes) != order:
        raise ValueError(f"class sizes sum to {sum(class_sizes)}, "
                         f"not to the order {order}")
    if min(class_sizes, default=1) < 1:
        raise ValueError("class sizes must be >= 1")
    if len(class_labels) != len(class_sizes):
        raise ValueError(f"{len(class_labels)} class labels for "
                         f"{len(class_sizes)} classes")
    if len(column_labels) != len(columns):
        raise ValueError(f"{len(column_labels)} column labels for "
                         f"{len(columns)} columns")
    if not all(0 <= col < 1 << len(class_sizes) for col in columns):
        raise ValueError("a column is not a bitset over "
                         f"{len(class_sizes)} rows")
    full = (1 << len(columns)) - 1
    rows = tuple(sum(1 << j for j, col in enumerate(columns) if col >> r & 1)
                 for r in range(len(class_sizes)))
    return IncidenceProfile(
        order=order, rows=rows, kill=tuple(full & ~r for r in rows),
        class_sizes=tuple(class_sizes), class_labels=tuple(class_labels),
        column_labels=tuple(column_labels),
        fused_members=tuple((r,) for r in range(len(rows))),
        num_columns=len(columns))


def build_profile(G: PermGroup, fusion: Optional[FusionMap] = None,
                  cap: int = DEFAULT_LATTICE_CAP) -> IncidenceProfile:
    """The class-versus-maximal-class incidence matrix of G.

    With a fusion map, rows are the fused classes and a fused row meets a
    maximal class if any constituent class does (a twisted conjugate landing
    inside the union defeats the whole fused class).
    """
    ct = conjugacy_classes(G)
    maxes = maximal_subgroups(G, cap=cap)
    if fusion is None:
        groups = [(ci,) for ci in range(len(ct.classes))]
    else:
        if fusion.group is not G:
            raise ValueError("fusion map belongs to a different group")
        groups = [tuple(members) for members in fusion.fused_classes]
    masks = [sum(1 << ci for ci in members) for members in groups]
    profile = profile_from_classes(
        G.order, [sum(ct.classes[ci].size for ci in m) for m in groups],
        ["+".join(ct.classes[ci].label for ci in m) for m in groups],
        [sum(1 << r for r, mask in enumerate(masks)
             if mc.mtilde_class_bits & mask) for mc in maxes],
        [mc.label for mc in maxes])
    return dataclasses.replace(profile, group=G, fused_members=tuple(groups))


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
    if profile.group is None:
        raise ValueError("the profile was built from class data and has no "
                         "group to map elements to classes with")
    ct = conjugacy_classes(profile.group)
    ci = ct.class_of_element(p)
    for ri, members in enumerate(profile.fused_members):
        if ci in members:
            return ri
    raise ValueError("element class missing from profile")


# ---------------------------------------------------------------------------
# exact minimal invariable generating number


def check_killable(profile: IncidenceProfile) -> None:
    """Raise ValueError when some column is killed by no row: then no set
    of classes, and no set of elements, invariably generates."""
    stuck = (1 << profile.num_columns) - 1
    for k in profile.kill:
        stuck &= ~k
    if stuck:
        c = (stuck & -stuck).bit_length() - 1
        raise ValueError(f"column {c} cannot be killed; "
                         "no set invariably generates")


def d_i_exact(profile: IncidenceProfile) -> tuple[int, list[int]]:
    """(d_I, witness): the lexicographically least minimum cover of all
    maximal-class columns by kill sets.

    Sets of rows are tried by size, each size in itertools.combinations
    order, and the first that invariably generates is returned, so the
    witness is the least of the least size.  Raises ValueError, as
    check_killable does, when no set covers.
    """
    check_killable(profile)
    rows = range(len(profile.kill))
    for size in itertools.count():
        for witness in itertools.combinations(rows, size):
            if invariably_generates(profile, witness):
                return size, list(witness)


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
    powers = [[ct.class_of_element(c.rep ** e)
               for e in range(2, c.element_order)
               if math.gcd(e, c.element_order) == 1] for c in ct.classes]
    # e is invertible mod the element order, so the power relation is
    # symmetric and its orbits are its connected components
    cyclic = len(orbits(range(k), powers.__getitem__))
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
    members = target.member_indices()
    m_members = set(members)
    # the first generator whose conjugation moves M off itself, and the
    # least element outside M that it moves a member of M onto
    moved = ((g, {m[i] for i in members} - m_members)
             for g, m in zip(G.generators, tab.conj_maps()))
    g, outside = next((g, out) for g, out in moved if out)
    x, gi = min(outside), tab.index[g.bytes]
    y = tab.mult(tab.mult(gi, x), tab.inv(gi))    # pulls x back into M
    assert y in m_members
    m_perms = [tab.elements[i] for i in members]
    X = m_perms + [tab.elements[x]]
    Y = m_perms + [tab.elements[y]]
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
