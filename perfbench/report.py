"""Run every workload several times and summarise the spread.

    python3 perfbench/report.py --runs 10 --first-seed 1 --out perfbench/baseline.json

The workloads and the run length come from BENCHMARK.json.  Each run is a
fresh ``run.py`` process with its own seed (first-seed, first-seed + 1,
...), made one after another.  For each workload and end-to-end metric the
report gives the median, the quartiles from ``statistics.quantiles(values,
n=4)`` and the spread (Q3 - Q1) / median.  Unless ``--no-trace`` is given,
each untraced run is paired with a traced run of the same seed, the two
taking turns to go first.  The pairs give the per-layer metrics (median
over the traced runs), the tracing overhead of each phase (traced time over
untraced time, per pair, summarised like a metric) and the share of the
analyze phase covered by the top-level spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One fresh run.py process; its metrics plus the checks it made."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode or not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stderr}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["checks"] = result["attempted"]
    return metrics


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "n": len(values), "values": values}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


# phase metric -> True when it is a rate, so that time is its inverse
PHASES = {"analyze_s": False, "mc_draws_per_s": True,
          "refuter_trials_per_s": True}


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced runs")
    parser.add_argument("--out", type=Path, help="write the report as JSON")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("quartiles need at least 2 runs")

    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    report = {"python": platform.python_version(),
              "platform": platform.platform(),
              "cpu_count": os.cpu_count(),
              "src_lines": src_lines(),
              "runs": args.runs, "seconds": seconds,
              "first_seed": args.first_seed, "workloads": {}}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs, traced = [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            order = (0,) if args.no_trace else (0, 1) if i % 2 else (1, 0)
            for trace in order:
                (traced if trace else runs).append(
                    one_run(workload, seed, seconds, trace))
        e2e = {name: summary([r[name] for r in runs]) for name in bounds}
        checks = sum(r["checks"] for r in runs + traced)
        entry = {"end_to_end": e2e, "checks": checks}
        print(f"== {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}; error_rate 0 "
              f"(0 of {checks} checks failed)")
        for name, s in e2e.items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  (> bound/3)"
            print(f"  {name:22s} {units[name]:4s} median {s['median']:<11.6g}"
                  f" Q1 {s['q1']:<11.6g} Q3 {s['q3']:<11.6g} "
                  f"spread {s['spread']:.4f} bound {bounds[name]}{flag}")
        if traced:
            entry["per_layer"] = {
                name: statistics.median(t[name] for t in traced)
                for name in traced[0] if name != "checks"}
            entry["trace_overhead"] = {}
            for phase, rate in PHASES.items():
                ratios = [(u[phase] / t[f"trace.{phase}"]) if rate else
                          (t[f"trace.{phase}"] / u[phase])
                          for u, t in zip(runs, traced)]
                s = entry["trace_overhead"][phase] = summary(ratios)
                print(f"  traced/untraced time {phase:20s} median "
                      f"{s['median']:.4f} Q1 {s['q1']:.4f} Q3 {s['q3']:.4f} "
                      f"({' '.join(f'{r:.3f}' for r in ratios)})")
            print(f"  analyze phase covered by top-level spans "
                  f"{entry['per_layer']['trace.coverage']:.4f}")
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
