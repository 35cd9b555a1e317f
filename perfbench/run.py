"""Run one workload of the invgen benchmark and print its metrics.

    python3 perfbench/run.py --workload a8-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from ``src/``.
A run repeats units of work (see workloads.py) until ``--seconds`` have
passed, never cutting a unit short, so a run holds at least one unit.
Set-up is timed in fresh processes, one after each round of a unit, so
that ``setup_s`` samples the host over the whole run.
Each metric is printed with its unit, then the error rate, and the last
line is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
library's layers (tracer.py), reports the per-layer metrics, and writes
the spans to ``perfbench/out/``.  The exit code is 0 only when every
mathematical output matched its pinned value.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_library() -> None:
    """Put the checkout's ``src/`` first on the path and import invgen from
    it; exit with an error when the checkout holds no library."""
    package = SRC / "invgen"
    if not (package / "__init__.py").is_file():
        sys.exit(f"run.py: no invgen package at {package}; "
                 "run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import invgen
    if Path(invgen.__file__).resolve().parent != package.resolve():
        sys.exit(f"run.py: imported invgen from {invgen.__file__}, "
                 f"not from {package}")


def setup_probe(workload: str) -> float:
    """Time import, catalog load and input construction in this process."""
    t0 = time.perf_counter()
    import_library()
    import workloads
    workloads.setup(workloads.WORKLOADS[workload])
    return time.perf_counter() - t0


def setup_seconds(workload: str) -> float:
    """Set-up time of one fresh process, started and awaited here."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(setup_probe(args.workload))
        return 0
    if args.seconds is None:
        parser.error("--seconds is required")

    import_library()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")

    metrics: dict[str, tuple[float, str]] = {}
    setup_times: list[float] = []
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        for layer in tracer.install():
            print(f"layer {layer} not found; its metrics are absent")
    spec = workloads.WORKLOADS[args.workload]
    check = workloads.Checker()
    units = []
    between_rounds = (None if tracer is not None else
                      lambda: setup_times.append(setup_seconds(args.workload)))
    try:
        inputs = workloads.setup(spec)
        start = time.perf_counter()
        while True:
            units.append(workloads.run_unit(spec, inputs, args.seed, check,
                                            tracer, between_rounds))
            if time.perf_counter() - start >= args.seconds:
                break
            inputs = workloads.setup(spec)
    except Exception:
        traceback.print_exc()
        check(False, "exception raised")
    finally:
        if tracer is not None:
            tracer.restore()

    if units:
        analyze_s = statistics.median(u.analyze_s for u in units)
        mc = statistics.median(r for u in units for r in u.mc_rates)
        refute = statistics.median(r for u in units for r in u.refute_rates)
        if tracer is None:
            metrics["setup_s"] = (statistics.median(setup_times), "s")
            metrics["analyze_s"] = (analyze_s, "s")
            metrics["mc_draws_per_s"] = (mc, "1/s")
            metrics["refuter_trials_per_s"] = (refute, "1/s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB")
        else:
            metrics.update(tracer.layer_metrics(len(units)))
            metrics["trace.analyze_s"] = (analyze_s, "s")
            metrics["trace.mc_draws_per_s"] = (mc, "1/s")
            metrics["trace.refuter_trials_per_s"] = (refute, "1/s")
            metrics["trace.coverage"] = (
                statistics.median(tracer.coverage["phase.analyze"]), "ratio")
            out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(out, {"workload": args.workload, "seed": args.seed,
                               "units": len(units)})
            print(f"spans written to {out.relative_to(ROOT)}")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"units {len(units)}")
    if units:
        # every unit repeats the same seeded work, so the first one stands
        # for all; a traced run must print the same digest
        digest = hashlib.sha256(json.dumps(
            units[0].outputs, sort_keys=True).encode()).hexdigest()
        print(f"outputs sha256 {digest}")
    print(f"error_rate {check.failed / max(check.attempted, 1):.6g} ratio "
          f"({check.failed} of {check.attempted} checks failed)")
    correct = check.failed == 0 and bool(units)
    print(json.dumps({
        "correct": correct,
        "attempted": max(check.attempted, 1),
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
