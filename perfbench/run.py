#!/usr/bin/env python3
"""focalpipe benchmark: one closed-loop workload per run, checked and timed.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 15 --trace 0

One caller drives the program in a closed loop: the next unit of work
starts when the previous one has finished. `--trace 0` measures the
end-to-end metrics with tracing off; `--trace 1` runs the workload's trace
set alternately untraced and traced and reports per-layer metrics from the
traced passes. The last line of standard output is the JSON result; the
lines before it name every metric with its unit. Run records and spans go
to `.perfbench/` in the repository root. See perfbench/README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# one thread per BLAS/OpenMP pool, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import refkernel  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("ablation", "dense", "merge-io")
SETUP_REPEATS = 3
P90_MIN_IMAGES = 100
# reference kernel time per second of program time
REF_SHARE = 0.25


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and generate inputs, print the set-up time, exit")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import focalpipe from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "focalpipe" / "__init__.py").is_file():
        print(f"error: no focalpipe sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import focalpipe  # noqa: F401
    import tracing
    import workloads

    if Path(focalpipe.__file__).resolve().parent != (src / "focalpipe").resolve():
        print(f"error: focalpipe imported from {focalpipe.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return tracing, workloads


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    return sorted(values)[max(0, math.ceil(q * len(values)) - 1)]


def setup_probes(args, n: int) -> list[float]:
    """Set-up time of n fresh processes that import and generate the inputs."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--setup-only"],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Checks:
    """Output checks, made outside the timed region."""

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.failed_images = 0

    def unit(self, wl, pool, index: int, unit, first_digest: dict) -> None:
        """Full check of a unit's first run; later runs must match its digest."""
        errors = []
        if unit.failed < unit.images:
            key = index % wl.pool_len(pool)
            if key not in first_digest:
                errors = wl.check(pool, index, unit)
                first_digest[key] = unit.digest
            elif first_digest[key] != unit.digest:
                errors = [f"unit {key}: output differs from its first run"]
        unit.outputs.clear()
        # an image that raised fails alone; a failed output check fails the unit
        self.failed_images += unit.images if errors else unit.failed
        self.errors += unit.errors + errors


def closed_loop(wl, pool, seconds: float, checks: Checks) -> tuple[list, float, list]:
    """Units back to back for `seconds` of wall time; checks in between.

    After each unit the reference kernel runs for REF_SHARE of the unit's
    time, so its samples are spread over the run as the program's time is.
    """
    units, first_digest, ref = [], {}, []
    timed = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        unit = wl.run(pool, len(units))
        timed += unit.elapsed
        refkernel.sample(REF_SHARE * unit.elapsed, ref)
        checks.unit(wl, pool, len(units), unit, first_digest)
        units.append(unit)
    return units, timed, ref


def trace_passes(wl, pool, seconds: float, tracer, tracing, checks: Checks) -> dict:
    """The trace set alternately untraced and traced until `seconds` have passed.

    Per-layer metrics come from the traced passes; every pass must produce
    the same output digests and every traced pass the same counts.
    """
    plain_s, traced_s, layers, counts, digests = [], [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < seconds:
        for traced in (False, True):
            if traced:
                tracer.reset()
                tracer.install()
            try:
                units = [wl.run(pool, i, tracer if traced else None)
                         for i in range(wl.trace_units)]
            finally:
                tracer.uninstall()
            (traced_s if traced else plain_s).append(sum(u.elapsed for u in units))
            digests.append([u.digest for u in units])
            for i, u in enumerate(units):
                attempted += u.images
                checks.unit(wl, pool, i, u, {})
            if traced:
                layers.append(tracing.layer_metrics(tracer.spans, tracer.counts))
                counts.append(dict(tracer.counts))
    if any(d != digests[0] for d in digests):
        checks.errors.append("traced and untraced passes produced different outputs")
    if any(c != counts[0] for c in counts):
        checks.errors.append("per-layer counts differ between traced passes")
    return {"plain_s": plain_s, "traced_s": traced_s, "layers": layers,
            "attempted": attempted}


def print_trace_tables(spans, tracing) -> None:
    """The ROADMAP stage breakdown and each layer's share of self time."""
    inclusive, layer_self = tracing.summarize(spans)
    stages = [("regions", ["pipeline.regions_for_image"]),
              ("refine", ["pipeline.refine_image"]),
              ("detect", ["scenes.oracle_detect"]),
              ("merge", ["fuse.merge_pipeline"]),
              ("eval", ["evalkit.coco_eval", "evalkit.voc_ap_at"]),
              ("merge cmd", ["cli.main"])]
    print("stage, inclusive time in the last traced pass:")
    for label, names in stages:
        t = sum(inclusive.get(n, 0.0) for n in names)
        if t:
            print(f"  {label:<10} {t:10.4f} s")
    total = sum(layer_self.values())
    print("layer self time in the last traced pass:")
    for layer, t in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} {t:10.4f} s  {100 * t / total if total else 0.0:5.1f} %")


def end_to_end(args, wl, pool, setup_s: float, checks: Checks) -> tuple[dict, dict, int]:
    units, timed_s, ref = closed_loop(wl, pool, args.seconds, checks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + setup_probes(args, SETUP_REPEATS - 1)
    attempted = sum(u.images for u in units)
    images = attempted - sum(u.failed for u in units)
    image_s = [t for u in units for t in u.image_s]
    eval_s = [u.eval_s for u in units if u.eval_s is not None]
    gains = {}
    for i, u in enumerate(units):
        if u.ap50_gain is not None:
            gains.setdefault(i % wl.pool_len(pool), u.ap50_gain)
    # images carried in the time of 1000 reference-kernel runs: the host's
    # speed drifts from minute to minute and cancels out (see README.md)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "images_per_kref": (images / timed_s * 1000 * statistics.fmean(ref), "1/kref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # reported here, not in the JSON result: see perfbench/README.md
    extra = {
        "setup_samples": (len(setups), "count"),
        "units": (len(units), "count"),
        "timed_s": (timed_s, "s"),
        "images_per_s": (images / timed_s, "1/s"),
        "ref_kernel_ms": (1000 * statistics.fmean(ref), "ms"),
        "ref_samples": (len(ref), "count"),
        "image_ms_p50": (1000 * statistics.median(image_s) if image_s else None, "ms"),
        "image_samples": (len(image_s), "count"),
        "image_ms_p90": (1000 * quantile(image_s, 0.9)
                         if len(image_s) >= P90_MIN_IMAGES else None, "ms"),
        "eval_s": (statistics.median(eval_s) if eval_s else None, "s"),
        "eval_samples": (len(eval_s), "count"),
        "ap": (units[0].ap, "%"),
        "ibs_gain_ap50": (statistics.fmean(gains.values()) if gains else None, "AP50 points"),
        "ibs_gain_corpora": (len(gains), "count"),
    }
    return metrics, extra, attempted


def per_layer(args, tracing, wl, pool, checks: Checks) -> tuple[dict, dict, int]:
    tracer = tracing.Tracer()
    passes = trace_passes(wl, pool, args.seconds, tracer, tracing, checks)
    metrics = {}
    for name in passes["layers"][0]:
        values = [m[name] for m in passes["layers"]]
        # times vary between passes, so take their median; counts repeat
        value = statistics.median(values) if name.endswith("_s") else values[0]
        metrics[name] = (value, tracing.layer_unit(name))
    overhead = statistics.median(passes["traced_s"]) / statistics.median(passes["plain_s"]) - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    extra = {"traced_passes": (len(passes["traced_s"]), "count"),
             "untraced_pass_s": (statistics.median(passes["plain_s"]), "s"),
             "traced_pass_s": (statistics.median(passes["traced_s"]), "s")}
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print_trace_tables(tracer.spans, tracing)
    return metrics, extra, passes["attempted"]


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    tracing, workloads = import_program()
    wl = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        pool = wl.make_inputs(args.seed, work_dir)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "inputs": wl.input_digest(pool)}))
            return 0
        checks = Checks()
        if args.trace:
            metrics, extra, attempted = per_layer(args, tracing, wl, pool, checks)
        else:
            metrics, extra, attempted = end_to_end(args, wl, pool, setup_s, checks)
        ap = workloads.perfect_ap(wl.first_corpus(pool))
        if ap != 100.0:
            checks.errors.append(f"perfect run on the first corpus scored AP {ap!r}, not 100")
        inputs = wl.input_digest(pool)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = checks.failed_images
    correct = not checks.errors and failed == 0
    extra["failed_frac"] = (failed / attempted, "ratio")
    for e in checks.errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    info = machine()
    print("machine: " + " ".join(f"{k}={v!r}" for k, v in info.items()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} inputs={inputs[:16]} attempted={attempted} failed={failed}")
    for name, (value, unit) in {**metrics, **extra}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<26} {shown:>14} {unit}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, inputs=inputs, machine=info,
                  extra={k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
                  errors=checks.errors)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
