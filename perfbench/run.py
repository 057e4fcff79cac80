"""fimalloc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload greedy-k20 --seed 42 --seconds 40 --trace 0

Runs from any directory; the package is imported from `src/` next to this
directory, so nothing needs installing.  Each cycle of the workload runs in
a fresh child interpreter (see worker.py), one at a time, with BLAS and
OpenMP pinned to one thread.  With `--trace 0` the run measures the
end-to-end metrics over whole cycles, started while the next one still ends
within `--seconds` (at least one), and reports medians over them, each time
scaled to the reference speed by the speed probe run around its cycle.
With `--trace 1` it runs plain and traced cycles in turn and reports the
per-layer metrics.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the metric names and units come from BENCHMARK.json.
Exits 1 when a solve fails or a check fails, 2 when the checkout is
incomplete.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".perfbench_work"
REQUIRED = (ROOT / "BENCHMARK.json", ROOT / "src" / "fimalloc" / "__init__.py",
            ROOT / "tests" / "fixtures" / "golden_objectives.json",
            ROOT / "tests" / "fixtures" / "golden_k20_seed42.json")
TRACE_PAIRS = 3
# The speed probe's time (worker.probe) at the reference machine's usual speed:
# a two-vCPU "Intel(R) Xeon(R) Processor" VM, Python 3.11, numpy 2.4.
REFERENCE_PROBE_S = 0.020
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(args, deadline: float, *, trace=False) -> dict:
    """Start one worker interpreter, wait for it, and return its JSON report."""
    spawned = time.monotonic()
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--spawned", repr(spawned)]
    if trace:
        argv.append("--trace")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker did not finish within the run's time limit: {exc}") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def finite(values) -> list:
    return [v for v in values if math.isfinite(v)]


def median(values) -> float:
    values = finite(values)
    return statistics.median(values) if values else 0.0


def speed_factor(cycle) -> float:
    """REFERENCE_PROBE_S over the median probe time around this cycle.

    Below 1 while the machine runs slower than the reference speed, so that
    a time multiplied by it reads as it would at the reference speed.
    """
    return REFERENCE_PROBE_S / statistics.median(cycle["probe_s"])


def end_to_end(args, deadline) -> tuple:
    """Whole cycles while the next one fits in --seconds; always at least one.

    Every time is scaled by its own cycle's speed factor before the median is
    taken, which removes the swings of the shared host's speed that all of a
    cycle's work, probe included, goes through.
    """
    cycles = []
    start = time.monotonic()
    while True:
        cycles.append(run_child(args, deadline))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(cycles) > args.seconds:
            break
    headline = cycles[0]["headline"]
    factors = [speed_factor(c) for c in cycles]
    raw, scaled = {}, {}
    for cycle, factor in zip(cycles, factors):
        for s in cycle["solves"]:
            if s["error"] is None:
                raw.setdefault(s["algorithm"], []).append(s["ms"])
                scaled.setdefault(s["algorithm"], []).append(s["ms"] * factor)
    metrics = {
        "solve_ms": median(scaled.get(headline, [])),
        "wall_s": median([c["wall_s"] * f for c, f in zip(cycles, factors)]),
        "peak_rss_mb": median([c["peak_rss_mb"] for c in cycles]),
        "setup_s": median([c["setup_s"] * f for c, f in zip(cycles, factors)]),
    }
    notes = [f"{len(cycles)} cycle(s) of {len(cycles[0]['solves'])} solve(s), each in a fresh "
             f"interpreter; speed factor median {median(factors):.3f}, range "
             f"{min(factors):.3f}-{max(factors):.3f}; as measured, median "
             f"{median([c['wall_s'] for c in cycles]):.3f} s per cycle and "
             f"{median([c['setup_s'] for c in cycles]):.3f} s set-up"]
    for alg, samples in sorted(scaled.items()):
        notes.append(f"{alg}: median {median(samples):.3f} ms at reference speed, "
                     f"{median(raw[alg]):.3f} ms as measured, per solve over n={len(samples)}"
                     + (" (solve_ms)" if alg == headline else "")
                     + "; samples at reference speed " + " ".join(f"{ms:.1f}" for ms in samples))
    return cycles, metrics, notes


def traced(args, deadline, spec) -> tuple:
    """Plain and traced cycles in turn; the layer metrics come from the fastest traced one.

    The tracing overhead is the fastest traced cycle minus the fastest plain
    one.  Every count must repeat exactly across the traced cycles.
    """
    plain, runs = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(run_child(args, deadline))
        runs.append(run_child(args, deadline, trace=True))
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    differing = [name for name in counts
                 if len({run["layers"].get(name) for run in runs}) > 1]
    if differing:
        raise ChildFailed(f"counts differ between traced cycles: {', '.join(differing)}")
    cycle = min(runs, key=lambda run: run["wall_s"])
    fastest_plain = min(run["wall_s"] for run in plain)
    metrics = dict(cycle["layers"])
    metrics["trace.overhead_s"] = cycle["wall_s"] - fastest_plain
    notes = [f"fastest of {TRACE_PAIRS} traced cycles {cycle['wall_s']:.3f} s, of "
             f"{TRACE_PAIRS} untraced {fastest_plain:.3f} s; counts identical in every traced "
             f"cycle; the last one's {metrics['trace.spans']} spans are in "
             f"{WORKDIR.name}/spans-{args.workload}-seed{args.seed}.npz"]
    for row in cycle["per_solve"]:
        counts = ", ".join(f"{count} {name}" for name, count in row["counts"].items())
        notes.append(f"{row['solve']}: {row['s']:.3f} s traced; spans below it: {counts}")
    if cycle["missing_hooks"]:
        notes.append(f"not traced (no longer defined): {', '.join(cycle['missing_hooks'])}")
    return plain + runs, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    missing = [str(path.relative_to(ROOT)) for path in REQUIRED if not path.is_file()]
    if missing:
        print(f"incomplete checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(names)}",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    WORKDIR.mkdir(exist_ok=True)

    try:
        if args.trace:
            cycles, values, notes = traced(args, deadline, spec)
        else:
            cycles, values, notes = end_to_end(args, deadline)
    except ChildFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    unknown = sorted(set(values) - {m["name"] for m in wanted})
    absent = [m["name"] for m in wanted if m["name"] not in values]
    if unknown or absent:
        print(f"metric names out of step with BENCHMARK.json: extra {unknown}, missing {absent}",
              file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in cycles)
    failed = sum(c["failed"] for c in cycles)
    env = cycles[0]["env"]
    print(f"workload {args.workload}, seed {args.seed}: numpy {env['numpy']}, "
          f"scipy {env['scipy']}, BLAS/OpenMP threads {env['threads']}")
    for note in notes:
        print(f"  {note}")
    print(f"  failed_frac {failed}/{attempted} solves")
    for problem in [p for c in cycles for p in c["problems"]]:
        print(f"  FAILED {problem}")
    for m in wanted:
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']} ({m['better']} is better)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
