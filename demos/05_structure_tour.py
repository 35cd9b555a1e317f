"""Structure tour: lattices, chief series, nilpotency, and the
almost-simple example whose fixed-point-free elements all sit in the socle.
"""

from invgen import (catalog_group, chief_series,
                    find_noninvariable_generating_set, is_nilpotent,
                    load_catalog, maximal_subgroups, subgroup_lattice,
                    symmetric_group)
from invgen.families import almost_simple_lower_example
from invgen.group import PermGroup

S4 = symmetric_group(4)
print("S4 has", len(subgroup_lattice(S4)), "subgroups;",
      len(maximal_subgroups(S4)), "maximal classes")

series = chief_series(S4)
print("chief series factors of S4:",
      [(f.order, "abelian" if f.abelian else "non-abelian")
       for f in series.factors], f" a={series.a} b={series.b}")

print("\nnilpotency via normal maximal subgroups:")
for name in ("C8", "D8", "S3", "A5"):
    G = catalog_group(name)
    print(f"  {name}: nilpotent = {is_nilpotent(G)}")

# the constructive side of the nilpotency dichotomy
S3 = symmetric_group(3)
X, Y = find_noninvariable_generating_set(S3)
print("\nS3: found X generating S3 (order", PermGroup(X).order,
      ") whose classwise twin Y generates only order", PermGroup(Y).order)

# the almost-simple lower-bound example
G = catalog_group("PGammaL(2,8)")
rep = almost_simple_lower_example(G)
print(f"\n{rep.group_name}: socle order {rep.socle_order}, outer part of",
      f"order {rep.field_auto_order}")
print(f"maximal class above the field-automorphism normalizer: "
      f"{rep.maximal_label} with v = {rep.v} (>= 2/3: {rep.v_at_least_two_thirds})")
print("all fixed-point-free elements inside the socle:", rep.fpf_inside_socle)

print("\nfull catalog:", ", ".join(e.name for e in load_catalog()))
