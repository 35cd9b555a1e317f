"""Tests of the benchmark itself, not of the library:

    python3 -m pytest perfbench -q

A short run is one unit of work per workload, so these take a few minutes,
most of it the A8 analysis.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402

run.import_library()
import tracer  # noqa: E402


def bench(workload: str, trace: int, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=900)


@functools.cache
def short_run(workload: str, trace: int) -> tuple[dict, list]:
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_emits_every_metric(workload, trace):
    result, lines = short_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("error_rate 0 ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_gives_the_same_outputs(workload):
    def digest(trace):
        _, lines = short_run(workload, trace)
        return [line for line in lines if line.startswith("outputs ")]

    assert len(digest(0)) == 1
    assert digest(1) == digest(0)


def _invgen_attributes() -> dict:
    """Every attribute of the invgen modules and of the classes they define."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "invgen" and not mod_name.startswith("invgen."):
            continue
        for attr, value in vars(mod).items():
            out[mod_name, attr] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for member, v in vars(value).items():
                    out[mod_name, attr, member] = v
    return out


def test_tracer_restores_every_attribute():
    before = _invgen_attributes()
    t = tracer.Tracer()
    assert t.install() == []
    during = _invgen_attributes()
    changed = {k for k in before if during[k] is not before[k]}
    # maximal_subgroups is bound by name in several modules; all are patched
    for mod in ("invgen.maximal", "invgen.structure", "invgen.generation",
                "invgen.families", "invgen"):
        assert (mod, "maximal_subgroups") in changed
    assert ("invgen.group", "PermGroup", "__init__") in changed
    t.restore()
    after = _invgen_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench(WORKLOADS[0], 0, root=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
