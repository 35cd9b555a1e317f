"""Exact invariable generation and Chebotarev invariants of small
permutation groups.

A set S invariably generates G when every independent replacement of its
members by conjugates still generates; this package computes the exact
test, the minimal invariable generating number, the probability that k
uniform random elements invariably generate, and the expected waiting time
(the Chebotarev invariant), all in exact rational arithmetic over a small
catalog of permutation groups.
"""

from .perm import Perm, format_cycles, parse_cycles
from .group import (CapExceeded, PermGroup, alternating_group, generates,
                    group_from_generators, power_group, symmetric_group)
from .structure import (ChiefSeries, ConjugacyTable, FusionMap,
                        SubgroupRecord, chief_series, conjugacy_classes,
                        fuse_classes_under, is_nilpotent, maximal_subgroups,
                        subgroup_lattice)
from .maximal import MaximalClass
from .generation import (IncidenceProfile, build_profile, chief_bound_check,
                         class_count_bounds, d_i_exact,
                         find_noninvariable_generating_set,
                         invariably_generates, invariably_generates_elements,
                         invgen_sample_refuter, profile_from_classes)
from .chebotarev import (DistinctTildeFamily, McEstimate, chebotarev_exact,
                         chebotarev_mc, distinct_tilde_family, p_i_exact,
                         p_i_sandwich_check, theorem2_ratio_report,
                         tilde_family)
from .families import (CatalogEntry, TupleMatrix, alternating_pair,
                       almost_simple_lower_example, catalog_group,
                       instantiate, kl_criterion_check, load_catalog,
                       pigeonhole_bound, search_generating_matrix,
                       theorem3c_check)

__version__ = "0.1.0"
