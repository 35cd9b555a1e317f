"""The benchmark's workloads: what one unit of work runs, and its checks.

Every workload runs the same three timed phases, each through the public
library functions:

* analyze: the cold exact analysis of freshly built catalog groups
  (classes, maximal classes, chief series, nilpotency, incidence profile,
  d_I, C(G)) plus, where the catalog names an overgroup, the fused profile;
* mc: seeded ``chebotarev_mc`` on the analysed groups, which only reads the
  tables, classes and profiles the analyze phase cached;
* refuter: ``invgen_sample_refuter`` with one ``random.Random(seed)``, which
  builds a full Schreier-Sims chain per trial and no element table.

The workloads differ in which phase dominates and in which groups they use;
README.md gives the reasons.  Every mathematical output is compared with the
values pinned in pins.json.
"""

from __future__ import annotations

import contextlib
import functools
import json
import random
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from invgen import alternating_group, chebotarev, families, generation, structure

LATTICE_CAP = 25_000        # the A8 analysis needs more than the default cap
ROUNDS = 10                 # mc and refuter phases are timed in this many rounds
MC_TOLERANCE_SE = 6         # a Monte Carlo mean may sit this many SE from C(G)

# The catalog groups of order <= 5040, named explicitly.  F20 is left out:
# its generators are those of AGL(1,5), and the catalog is due to drop it.
CATALOG_GROUPS = (
    "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11", "C12",
    "C13", "C14", "C15", "C16", "C2^2", "C2^3", "C2^4", "S3", "S4", "D8",
    "Q8", "A4", "A5", "A6", "A7", "S5", "S6", "S7", "PSL(2,7)", "PSL(2,8)",
    "PSL(2,11)", "AGL(1,5)", "AGL(1,7)", "AGL(1,11)", "AGL(1,13)",
    "PGammaL(2,8)")


@functools.cache
def pins() -> dict:
    """The seed library's outputs per group, from pins.json."""
    return json.loads(Path(__file__).with_name("pins.json").read_text())


@dataclass(frozen=True)
class Workload:
    exact: tuple            # catalog groups analysed cold, in this order
    mc_trials: int          # Monte Carlo trials per analysed group
    refute_degrees: tuple   # refute alternating_pair(n) in A_n for these n;
                            # empty: refute each analysed group's d_I witness
    refute_trials: int      # refuter trials per target


WORKLOADS = {
    "a8-cold": Workload(exact=("A8",), mc_trials=60_000,
                        refute_degrees=(8,), refute_trials=1_500),
    "catalog": Workload(exact=CATALOG_GROUPS, mc_trials=3_000,
                        refute_degrees=(), refute_trials=150),
    "refuter": Workload(exact=("A5", "A6", "A7"), mc_trials=10_000,
                        refute_degrees=(9, 10, 11, 12, 13, 14),
                        refute_trials=100),
}


@dataclass
class Target:
    """One analysed group, with its overgroup and alternating pair."""
    name: str
    group: object
    overgroup: Optional[object]
    pair: Optional[tuple]


@dataclass
class Inputs:
    exact: list             # Target per analysed group
    refute: list            # (name, group, elements) for explicit pairs


def setup(w: Workload) -> Inputs:
    """Load the catalog and build every group and generator the unit uses."""
    catalog = families.load_catalog()
    by_name = {e.name: e for e in catalog}
    exact = []
    for name in w.exact:
        entry = by_name[name]
        over = (families.resolve_overgroup(entry, catalog)
                if entry.overgroup else None)
        n = int(name[1:]) if re.fullmatch(r"A\d+", name) else 0
        pair = families.alternating_pair(n) if n >= 5 else None
        exact.append(Target(name, families.instantiate(entry), over, pair))
    refute = [(f"A{n}", alternating_group(n), families.alternating_pair(n))
              for n in w.refute_degrees]
    return Inputs(exact, refute)


class Checker:
    """Counts checks attempted and failed; reports each failure on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def equal(self, got, want, what: str) -> None:
        self(got == want, f"{what}: got {got!r}, want {want!r}")


def analyze(t: Target) -> tuple[dict, object, list]:
    """The cold exact analysis of one group: (outputs, profile, witness)."""
    G = t.group
    ct = structure.conjugacy_classes(G)
    maxes = structure.maximal_subgroups(G, cap=LATTICE_CAP)
    chief = structure.chief_series(G)
    nilpotent = structure.is_nilpotent(G, cap=LATTICE_CAP)
    profile = generation.build_profile(G, cap=LATTICE_CAP)
    d_i, witness = generation.d_i_exact(profile)
    c = chebotarev.chebotarev_exact(
        chebotarev.distinct_tilde_family(G, cap=LATTICE_CAP))
    out = {"order": G.order,
           "classes": len(ct.classes),
           "maximal": [[mc.order, mc.class_size] for mc in maxes],
           "chief": [[f.order, f.abelian] for f in chief.factors],
           "nilpotent": nilpotent,
           "d_i": d_i,
           "witness": [profile.class_labels[r] for r in witness],
           "c": f"{c.numerator}/{c.denominator}"}
    if t.overgroup is not None:
        fused = generation.build_profile(
            G, fusion=structure.fuse_classes_under(G, t.overgroup),
            cap=LATTICE_CAP)
        out["fused_d_i"] = generation.d_i_exact(fused)[0]
        if t.pair is not None:
            out["pair_invgen"] = generation.invariably_generates(
                fused, [generation.profile_row_of(fused, x) for x in t.pair])
    return out, profile, [ct.classes[r].rep for r in witness]


def check_analysis(check: Checker, name: str, out: dict) -> None:
    want_all = pins()[name]
    check.equal(sorted(out), sorted(want_all), f"{name} output keys")
    for key, want in want_all.items():
        check.equal(out.get(key), want, f"{name} {key}")
    check(2 ** out["d_i"] <= out["order"], f"{name}: 2**d_I > |G|")


@dataclass
class Unit:
    """Timings and outputs of one unit of work."""
    analyze_s: float
    mc_rates: list          # draws per second, one per round
    refute_rates: list      # trials per second, one per round
    outputs: dict           # every mathematical output, for comparisons


def run_unit(w: Workload, inputs: Inputs, seed: int, check: Checker,
             tracer=None, between_rounds=None) -> Unit:
    """Run the three phases once on freshly built inputs; call
    ``between_rounds`` after each mc + refuter round, outside the timing."""
    outputs: dict = {}
    span = tracer.span if tracer is not None else _no_span

    with span("phase.analyze"):
        t0 = time.perf_counter()
        analysed = {t.name: analyze(t) for t in inputs.exact}
        analyze_s = time.perf_counter() - t0
    for name, (out, _, _) in analysed.items():
        check_analysis(check, name, out)
        outputs[name] = out

    # Monte Carlo and refuter rounds alternate, so that each phase's rounds
    # sample the host over the whole second half of the unit: on a shared
    # host, speed drifts over seconds, and a short contiguous phase would
    # catch one slow or fast stretch.
    targets = inputs.refute or [(t.name, t.group, analysed[t.name][2])
                                for t in inputs.exact]
    rng = random.Random(seed)
    mc_rates, refute_rates = [], []
    mc_trials = w.mc_trials // ROUNDS
    refute_trials = w.refute_trials // ROUNDS
    for r in range(ROUNDS):
        with span("phase.mc"):
            estimates = []
            t0 = time.perf_counter()
            for t in inputs.exact:
                estimates.append((t.name, chebotarev.chebotarev_mc(
                    t.group, mc_trials, seed + r, profile=analysed[t.name][1])))
            mc_s = time.perf_counter() - t0
        draws = sum(round(est.mean * est.trials) for _, est in estimates)
        mc_rates.append(draws / mc_s)
        for name, est in estimates:
            c = Fraction(pins()[name]["c"])
            check(est.trials == mc_trials and
                  abs(est.mean - float(c)) <= MC_TOLERANCE_SE * est.std_error,
                  f"{name} Monte Carlo mean {est.mean} (SE {est.std_error})"
                  f" vs C(G) = {float(c)}")
            outputs[f"{name} mc round {r}"] = est.mean

        with span("phase.refuter"):
            verdicts = []
            t0 = time.perf_counter()
            for name, G, elements in targets:
                verdicts.append((name, generation.invgen_sample_refuter(
                    G, elements, refute_trials, rng)))
            refute_s = time.perf_counter() - t0
        refute_rates.append(refute_trials * len(targets) / refute_s)
        for name, v in verdicts:
            check(not v.refuted and v.trials_run == refute_trials,
                  f"{name} refuter verdict {v}, want UNREFUTED"
                  f"({refute_trials} trials)")
            outputs[f"{name} refuter round {r}"] = str(v)
        if between_rounds is not None:
            between_rounds()
    return Unit(analyze_s, mc_rates, refute_rates, outputs)


def _no_span(name: str) -> contextlib.nullcontext:
    return contextlib.nullcontext()
