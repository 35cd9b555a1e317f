"""Batch command-line front end with JSON output.

Commands: analyze, invgen, chebotarev, sweep.  All exact quantities are
serialized as {num, den} plus a decimal string, never bare floats.

Exit codes: 0 all assertions pass, 1 mathematical assertion failure,
2 cap or resource limit, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction
from typing import Optional

from . import chebotarev as cheb
from . import families, generation, structure
from .group import (CapExceeded, DEFAULT_LATTICE_CAP, PermGroup,
                    alternating_group, generates, group_from_generators,
                    symmetric_group)
from .perm import parse_cycles

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CAP = 2
EXIT_INPUT = 3

DEFAULT_SEED_CONSTANT = 1729            # used when --seed 0 is given


def _rat(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator,
            "decimal": f"{float(x):.6f}"}


class _Run:
    def __init__(self, args):
        self.args = args
        self.catalog = families.load_catalog(args.catalog)

    def group(self) -> PermGroup:
        if self.args.gens:
            if not self.args.degree:
                raise ValueError("--gens requires --degree")
            gens = [parse_cycles(s, self.args.degree)
                    for s in self.args.gens.split(";")]
            return group_from_generators(gens, name="inline")
        if not self.args.group:
            raise ValueError("give a catalog group name or --gens/--degree")
        return families.catalog_group(self.args.group, self.catalog)


def cmd_analyze(run: _Run) -> tuple[dict, int]:
    G = run.group()
    ct = structure.conjugacy_classes(G)
    maxes = structure.maximal_subgroups(G, cap=run.args.lattice_cap)
    series = structure.chief_series(G)
    out = {
        "group": G.name,
        "degree": G.degree,
        "order": G.order,
        "classes": [{"label": c.label, "size": c.size,
                     "element_order": c.element_order} for c in ct.classes],
        "maximal_classes": [{"label": m.label, "order": m.order,
                             "class_size": m.class_size, "v": _rat(m.v)}
                            for m in maxes],
        "nilpotent": structure.is_nilpotent(G, cap=run.args.lattice_cap),
        "chief_series": [{"order": f.order, "abelian": f.abelian}
                         for f in series.factors],
    }
    return out, EXIT_OK


def cmd_invgen(run: _Run) -> tuple[dict, int]:
    G = run.group()
    fusion = None
    if run.args.fuse:
        A = families.overgroup_by_name(run.args.fuse, run.catalog)
        fusion = structure.fuse_classes_under(G, A)
    cap = run.args.lattice_cap
    profile = generation.build_profile(G, fusion=fusion, cap=cap)
    out: dict = {"group": G.name, "order": G.order,
                 "rows": list(profile.class_labels),
                 "columns": list(profile.column_labels)}
    if run.args.check:
        rows = _parse_check(run.args.check, profile, G)
        ok = generation.invariably_generates(profile, rows)
        out["check"] = {"classes": [profile.class_labels[r] for r in rows],
                        "invariably_generates": ok}
    if run.args.di or not run.args.check:
        d_i, witness = generation.d_i_exact(profile)
        k_g, cyclic = generation.class_count_bounds(G, cap=cap)
        series = structure.chief_series(G)
        out["d_i"] = d_i
        out["witness"] = [profile.class_labels[r] for r in witness]
        out["bounds"] = {"k_g": k_g, "cyclic_classes": cyclic,
                         "a_plus_2b": series.a + 2 * series.b,
                         "log2_order": math.log2(G.order)}
    return out, EXIT_OK


def _parse_check(spec: str, profile, G: PermGroup) -> list[int]:
    rows = []
    for token in spec.split(","):
        token = token.strip()
        if token in profile.class_labels:
            rows.append(profile.class_labels.index(token))
        else:
            p = parse_cycles(token, G.degree)
            rows.append(generation.profile_row_of(profile, p))
    return rows


def cmd_chebotarev(run: _Run) -> tuple[dict, int]:
    G = run.group()
    out: dict = {"group": G.name, "order": G.order}
    if run.args.mc:
        seed = run.args.seed or DEFAULT_SEED_CONSTANT
        est = cheb.chebotarev_mc(G, run.args.trials, seed,
                                 cap=run.args.lattice_cap)
        out["mc"] = {"mean": est.mean, "se": est.std_error,
                     "trials": est.trials, "seed": est.seed}
        ratios_value = est.mean
    else:
        family = cheb.distinct_tilde_family(G, cap=run.args.lattice_cap)
        c = cheb.chebotarev_exact(family)
        out["c_exact"] = {"num": c.numerator, "den": c.denominator}
        out["c_decimal"] = f"{float(c):.6f}"
        ratios_value = float(c)
    if G.order > 1:
        out["ratios"] = {
            "c_over_sqrt_order": ratios_value / math.sqrt(G.order),
            "c_over_sqrt_order_log": ratios_value / math.sqrt(
                G.order * math.log(G.order)),
        }
    return out, EXIT_OK


def _sweep_groups(run: _Run, max_order: int):
    for e in run.catalog:
        if e.expected_order <= max_order:
            yield e, families.instantiate(e)


def cmd_sweep(run: _Run) -> tuple[dict, int]:
    suite = run.args.suite
    rows = []
    violations = 0
    max_order = min(run.args.max_order, run.args.lattice_cap)
    if suite == "theorem1":
        for e, G in _sweep_groups(run, max_order):
            report = generation.chief_bound_check(G, cap=run.args.lattice_cap)
            elem_ab_2 = _is_elementary_abelian_2(G)
            equality = 2 ** report.d_i == G.order
            ok = (report.within_chief_bound and report.within_log2_bound
                  and equality == elem_ab_2)
            violations += not ok
            rows.append({"group": e.name, "d_i": report.d_i,
                         "log2_order": report.log2_order,
                         "equality": equality, "ok": ok})
    elif suite == "theorem2":
        for e, G in _sweep_groups(run, max_order):
            rr = cheb.theorem2_ratio_report(G, cap=run.args.lattice_cap)
            # C(1) = 0 meets any bound, and its ratio is left out
            ok = rr.ratio_sqrt_log is None or rr.ratio_sqrt_log <= 2.0
            if e.has_tag("sharply-2-transitive"):
                ok = ok and 1.0 <= rr.ratio_sqrt <= 2.5
            violations += not ok
            rows.append({"group": e.name, "ratio_sqrt": rr.ratio_sqrt,
                         "ratio_sqrt_log": rr.ratio_sqrt_log, "ok": ok})
    elif suite == "prop24":
        seed = run.args.seed or DEFAULT_SEED_CONSTANT
        for e, G in _sweep_groups(run, max_order):
            nil = structure.is_nilpotent(G, cap=run.args.lattice_cap)
            cx = generation.find_noninvariable_generating_set(
                G, cap=run.args.lattice_cap)
            ok = nil == (cx is None)
            if G.order > 1:
                sampled = _sampled_all_invgen(G, run, seed)
                ok = ok and (nil == sampled)
            violations += not ok
            rows.append({"group": e.name, "nilpotent": nil,
                         "counterexample": cx is not None, "ok": ok})
    elif suite == "lemma23":
        for e, G in _sweep_groups(run, max_order):
            reps = cheb.p_i_sandwich_checks(G, 8, cap=run.args.lattice_cap)
            ok = all(rep.lower_ok and rep.upper_ok for rep in reps[1:])
            violations += not ok
            rows.append({"group": e.name, "k_range": "1..8", "ok": ok})
    elif suite == "families":
        for n in range(5, 9):
            an = alternating_group(n)
            fm = structure.fuse_classes_under(an, symmetric_group(n))
            prof = generation.build_profile(
                an, fusion=fm, cap=max(run.args.lattice_cap, 25_000))
            x, y = families.alternating_pair(n)
            ok = generation.invariably_generates(
                prof, [generation.profile_row_of(prof, x),
                       generation.profile_row_of(prof, y)])
            violations += not ok
            rows.append({"group": f"A{n}", "mode": "exact-fused", "ok": ok})
        seed = run.args.seed or DEFAULT_SEED_CONSTANT
        rng = random.Random(seed)
        for n in range(9, 15):
            an = alternating_group(n)
            x, y = families.alternating_pair(n)
            verdict = generation.invgen_sample_refuter(an, [x, y],
                                                       run.args.trials, rng)
            ok = not verdict.refuted
            violations += not ok
            rows.append({"group": f"A{n}", "mode": "refuter",
                         "trials": verdict.trials_run, "ok": ok})
    else:
        raise ValueError(f"unknown suite {suite!r}")
    if not rows:
        raise ValueError(f"sweep {suite} checked no groups: no catalog group "
                         f"has order <= {max_order} (the smaller of "
                         "--max-order and --lattice-cap)")
    out = {"suite": suite, "rows": rows, "violations": violations}
    return out, EXIT_OK if violations == 0 else EXIT_ASSERTION


def _is_elementary_abelian_2(G: PermGroup) -> bool:
    if G.order & (G.order - 1):       # order 1: rank 0, elementary abelian
        return False
    return all(g.order() <= 2 for g in G.generators) and \
        all((g * h) == (h * g) for g in G.generators for h in G.generators)


def _sampled_all_invgen(G: PermGroup, run: _Run, seed: int) -> bool:
    profile = generation.build_profile(G, cap=run.args.lattice_cap)
    rng = random.Random(seed)
    for _ in range(200):
        size = rng.randint(1, 3)
        xs = [G.random_element(rng) for _ in range(size)]
        if not generates(xs, G.order):
            continue
        if not generation.invariably_generates_elements(profile, xs):
            return False
    return True


def _render_table(data: dict) -> str:
    lines = []
    if "rows" in data and isinstance(data["rows"], list) and data["rows"] \
            and isinstance(data["rows"][0], dict):
        keys = list(data["rows"][0].keys())
        lines.append("  ".join(keys))
        for row in data["rows"]:
            lines.append("  ".join(str(row.get(k, "")) for k in keys))
        for k, v in data.items():
            if k != "rows":
                lines.append(f"{k}: {v}")
    else:
        for k, v in data.items():
            lines.append(f"{k}: {v}")
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 3), not argparse's cap code 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--catalog", type=str, default=None,
                        help="path to a catalog file (default: bundled)")
    common.add_argument("--format", choices=("json", "table"), default="json")
    common.add_argument("--lattice-cap", type=int, default=DEFAULT_LATTICE_CAP)
    ap = _Parser(
        prog="invgen",
        description="Exact invariable generation and Chebotarev invariants "
                    "of small permutation groups.",
        epilog=f"Seed 0 means the fixed constant {DEFAULT_SEED_CONSTANT}, "
               "never wall clock.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_selector(p):
        p.add_argument("group", nargs="?", help="catalog group name")
        p.add_argument("--gens", type=str, default=None,
                       help="inline generators, ';'-separated cycle strings")
        p.add_argument("--degree", type=int, default=None)

    p = sub.add_parser("analyze", parents=[common],
                       help="order, classes, maximal classes, "
                            "nilpotency, chief series")
    add_selector(p)

    p = sub.add_parser("invgen", parents=[common],
                       help="invariable-generation queries")
    add_selector(p)
    p.add_argument("--di", action="store_true",
                   help="exact minimal invariable generating number")
    p.add_argument("--check", type=str, default=None,
                   help="comma list of class labels or cycle strings")
    p.add_argument("--fuse", type=str, default=None,
                   help="overgroup name for fused classes")

    p = sub.add_parser("chebotarev", parents=[common],
                       help="exact or Monte Carlo C(G)")
    add_selector(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=False)
    mode.add_argument("--mc", action="store_true", default=False)
    p.add_argument("--trials", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sweep", parents=[common],
                       help="catalog-wide theorem checks")
    p.add_argument("suite", choices=("theorem1", "theorem2", "prop24",
                                     "lemma23", "families"))
    p.add_argument("--max-order", type=int, default=20_000)
    p.add_argument("--trials", type=int, default=1000,
                   help="refuter trials for the families suite")
    p.add_argument("--seed", type=int, default=0)
    return ap


def _check_numbers(args) -> None:
    """Reject out-of-range numeric options before any work runs."""
    for name, least in (("trials", 1), ("seed", 0), ("max_order", 1),
                        ("degree", 1), ("lattice_cap", 1)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise ValueError(f"--{name.replace('_', '-')} must be >= {least}, "
                             f"got {value}")


def _emit(text: str) -> None:
    """Print; if the reader has closed stdout, point it at os.devnull."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_numbers(args)
        run = _Run(args)
        handler = {"analyze": cmd_analyze, "invgen": cmd_invgen,
                   "chebotarev": cmd_chebotarev, "sweep": cmd_sweep}[args.command]
        data, code = handler(run)
    except AssertionError as e:
        # an internal consistency check failed, e.g. the maximal-search
        # tripwire: a mathematical failure, reported like any other result
        _emit(json.dumps({"error": "assertion", "reason": str(e)}))
        return EXIT_ASSERTION
    except CapExceeded as e:
        _emit(json.dumps({"error": "cap-exceeded", "reason": str(e)}))
        return EXIT_CAP
    except (ValueError, KeyError, OSError) as e:
        # str() of a KeyError is the repr of its message; the catalog is the
        # one file read, so an OSError is a catalog that cannot be read
        reason = str(e.args[0]) if isinstance(e, KeyError) else str(e)
        _emit(json.dumps({"error": "input", "reason": reason}))
        return EXIT_INPUT
    _emit(json.dumps(data, indent=2) if args.format == "json"
          else _render_table(data))
    return code


if __name__ == "__main__":
    sys.exit(main())
