"""The Chebotarev invariant: expected draws until invariable generation.

C(G) is computed three ways and compared: the exact waiting time of the
absorbing chain whose state is the set of distinct maximal-subgroup unions
still holding every draw, a truncated series with a rigorous tail bound,
and a seeded Monte Carlo simulation.
"""

from fractions import Fraction

from invgen import (alternating_group, chebotarev_exact, chebotarev_mc,
                    distinct_tilde_family, group_from_generators, p_i_exact,
                    p_i_sandwich_check, parse_cycles, theorem2_ratio_report)
from invgen.chebotarev import chebotarev_partial_sum

A5 = alternating_group(5)
A5.name = "A5"

fam = distinct_tilde_family(A5)
print("distinct unions of maximal-subgroup conjugates in A5:")
for dens, labels in zip(fam.densities, fam.provenance):
    print(f"  density {dens}   from {', '.join(labels)}")

print("\nP_I(A5, k) for k = 0..6:")
for k in range(7):
    p = p_i_exact(fam, k)
    print(f"  k={k}:  {p}  ~ {float(p):.4f}")

c = chebotarev_exact(fam)
print(f"\nexact chain:      C(A5) = {c} ~ {float(c):.6f}")

partial, tail = chebotarev_partial_sum(fam, 50)
print(f"series to k=50:   {float(partial):.6f}  (tail bound {float(tail):.2e})")

est = chebotarev_mc(A5, trials=20_000, seed=7)
print(f"Monte Carlo:      {est.mean:.4f} +- {est.std_error:.4f} "
      f"({est.trials} trials, seed {est.seed})")

print("\nsandwich bounds at k = 2:")
rep = p_i_sandwich_check(A5, 2)
print(f"  {rep.max_v_pow_k} <= {rep.miss_probability} <= {rep.sum_v_pow_k}")

# simple warm-up cases with hand-checkable answers
C2 = group_from_generators([parse_cycles("(1 2)", 2)], name="C2")
V4 = group_from_generators([parse_cycles("(1 2)", 4),
                            parse_cycles("(3 4)", 4)], name="C2xC2")
print("\nC(C2)    =", chebotarev_exact(distinct_tilde_family(C2)))
print("C(C2xC2) =", chebotarev_exact(distinct_tilde_family(V4)),
      "(= 4/3 + 2, the two-stage waiting time)")

print("\ngrowth-scale ratios:")
for G in (C2, V4, A5):
    rr = theorem2_ratio_report(G)
    print(f"  {rr.group_name:7s} C/sqrt(|G|) = {rr.ratio_sqrt:.3f}   "
          f"C/sqrt(|G| ln |G|) = {rr.ratio_sqrt_log:.3f}")
