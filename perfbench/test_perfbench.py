"""The benchmark's own checks.

    python3 -m pytest -q perfbench/test_perfbench.py

Every per-layer count repeats exactly across two traced runs of one seed,
and a different seed changes the generated inputs, so the seed reaches the
generator.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ["ablation", "dense", "merge-io"]


def run(workload: str, seed: int, *flags: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", *flags],
        capture_output=True, text=True, timeout=300, cwd=RUN.parent.parent)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat_for_one_seed(workload):
    first, second = run(workload, 3, "--trace", "1"), run(workload, 3, "--trace", "1")
    assert first["correct"] and second["correct"]

    def counts(result: dict) -> dict:
        return {name: m["value"] for name, m in result["metrics"].items()
                if m["unit"] != "s" and name != "trace.overhead_frac"}

    assert counts(first) == counts(second)
    assert first["attempted"] == second["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_reaches_the_generator(workload):
    a, again, b = (run(workload, s, "--setup-only")["inputs"] for s in (1, 1, 2))
    assert a == again
    assert a != b
