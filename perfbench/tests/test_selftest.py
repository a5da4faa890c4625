"""Self-test of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The traced runs take about half a minute each, three per workload: two with
one seed, whose counts must be identical, and one with another seed, which
may change the item order and nothing else.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
RESULTS = ROOT / ".perfbench" / "results"

sys.path.insert(0, str(BENCH))
import workloads as wl  # noqa: E402


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT,
         bench: Path = BENCH) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _traced(workload: str, seed: int) -> tuple[dict, dict]:
    proc = _run(workload, seed, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    full = json.loads(
        (RESULTS / f"{workload}-seed{seed}-trace1.json").read_text())
    return result, full


def _counts(full: dict) -> dict:
    return {k: v for k, v in full["trace"].items()
            if not (k.endswith(".s") or k.endswith("_s"))}


def _passes(full: dict) -> list[dict]:
    return [p for p in full["passes"] if "order" in p]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_counts_repeat_and_seed_changes_only_order(workload):
    runs = [_traced(workload, 1), _traced(workload, 1), _traced(workload, 2)]
    for result, full in runs:
        assert result["correct"], full["passes"]
        assert result["failed"] == 0
        assert full["counts_repeat"]
    (r1, f1), (r2, f2), (r3, f3) = runs

    assert _counts(f1) == _counts(f2)
    layer_counts = {name for name, m in r1["metrics"].items()
                    if m["unit"] == "count"}
    assert layer_counts
    for name in layer_counts:
        assert r1["metrics"][name] == r2["metrics"][name], name

    assert _counts(f3) == _counts(f1)
    order1 = _passes(f1)[0]["order"]
    order3 = _passes(f3)[0]["order"]
    assert order1 == _passes(f2)[0]["order"]
    assert order1 != order3 and sorted(order1) == sorted(order3)

    def verdicts(full):
        return {it["id"]: (it["ok"], it["proof"])
                for it in _passes(full)[0]["items"]}
    assert verdicts(f1) == verdicts(f3)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("oracle-proofs", 1, trace=0, cwd=tmp_path,
                bench=tmp_path / BENCH.name)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
