#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, summed up per end-to-end metric.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload ablation --pairs 10

Each pair runs `python3 <dir>/perfbench/run.py --workload W --seed S --seconds T --trace 0`
once in each checkout (one made by `git worktree add` or `git archive`, say); the parent
runs first in odd pairs and the change in even ones, so a drift of the host's speed falls
on both sides. `--setup-only` runs `run.py --setup-only` instead and compares `setup_s`.

Every pair's metrics are printed as they come. For each end-to-end metric of
BENCHMARK.json the summary gives each side's median and quartiles and the pairs the
change won (a tie counts for neither side), and says whether a gain holds (at least 9 in
10 pairs won, and a median gap wider than the parent's quartile spread) and whether the
change is worse than the parent's median by more than the metric's bound. Standard
library only; edits nothing. Exits 1 when a run reports `correct: false`, 2 when a run
gives no result.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9


class Metric(NamedTuple):
    name: str
    better: str  # "higher" or "lower"
    bound: float  # relative: 0.25 allows the change's median 25 % worse


class Summary(NamedTuple):
    parent: tuple[float, float, float]  # first quartile, median, third quartile
    change: tuple[float, float, float]
    wins: int
    losses: int
    pairs: int
    gain_holds: bool
    worse_than_bound: bool


def end_to_end_metrics(benchmark: Path = ROOT / "BENCHMARK.json") -> list[Metric]:
    spec = json.loads(benchmark.read_text())
    return [Metric(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between order statistics."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metric: Metric, parent: Sequence[float], change: Sequence[float]) -> Summary:
    """`parent[i]` and `change[i]` are pair i's readings of `metric`."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of readings on each side")
    sign = 1.0 if metric.better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    gain_holds = wins >= math.ceil(WIN_SHARE * len(parent)) and sign * (c[1] - p[1]) > p[2] - p[0]
    worse = sign * (p[1] - c[1]) > metric.bound * abs(p[1])
    return Summary(p, c, wins, losses, len(parent), gain_holds, worse)


def format_summary(metric: Metric, s: Summary) -> str:
    def side(q):
        return f"{q[1]:.6g} (quartiles {q[0]:.6g}-{q[2]:.6g})"

    gap = s.change[1] - s.parent[1]
    share = f" {100 * gap / s.parent[1]:+.2f} %" if s.parent[1] else ""
    ties = s.pairs - s.wins - s.losses
    verdict = "gain holds" if s.gain_holds else "no gain shown"
    if s.worse_than_bound:
        verdict += f"; WORSE than the parent's median by more than the {metric.bound:g} bound"
    return (f"{metric.name} ({metric.better} is better): parent {side(s.parent)}, "
            f"change {side(s.change)}, median gap {gap:+.6g}{share}, parent spread "
            f"{s.parent[2] - s.parent[0]:.6g}; change won {s.wins} of {s.pairs} "
            f"({s.losses} lost, {ties} tied): {verdict}")


def run_once(checkout: Path, args: argparse.Namespace) -> dict:
    """The JSON result line of one `run.py` run in `checkout`."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    cmd += ["--setup-only"] if args.setup_only else ["--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        print(f"error: no result from {' '.join(cmd)} (exit {proc.returncode})", file=sys.stderr)
        raise SystemExit(2)
    if args.setup_only:
        return {"setup_s": result["setup_s"], "inputs": result["inputs"]}
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
        print(f"error: {checkout} reported correct: false (failed {result['failed']} of "
              f"{result['attempted']})", file=sys.stderr)
        raise SystemExit(1)
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--setup-only", action="store_true",
                   help="run `run.py --setup-only` and compare set-up time alone")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    metrics = end_to_end_metrics()
    if args.setup_only:
        metrics = [m for m in metrics if m.name == "setup_s"]
    readings: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            readings[side].append(run_once(getattr(args, side), args))
        parent, change = readings["parent"][-1], readings["change"][-1]
        shown = "  ".join(f"{m.name} {parent[m.name]:.6g} -> {change[m.name]:.6g}"
                          for m in metrics)
        print(f"pair {i + 1} ({order[0]} first): {shown}", flush=True)
        if args.setup_only and parent["inputs"] != change["inputs"]:
            print(f"  inputs differ: {parent['inputs'][:16]} against {change['inputs'][:16]}")
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs:")
    for m in metrics:
        values = ([r[m.name] for r in readings[side]] for side in ("parent", "change"))
        print("  " + format_summary(m, summarize(m, *values)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
