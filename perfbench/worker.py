"""One fresh interpreter of the benchmark: set up a workload, run one cycle, check it.

The cycle's solves run between two sets of speed probes (see `probe`).

Started by run.py, never by hand.  The package's lru_caches are process
globals, so a fresh interpreter per cycle starts them cold, as every
`fimalloc` CLI invocation does.  Prints one JSON line on stdout; anything
the package prints goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"


PROBE_REPS = 5


def probe() -> float:
    """Time a fixed piece of work, about 20 ms at the reference machine's usual speed.

    The mix of small numpy matrix products, ufuncs and interpreted Python
    resembles the package's kernels, so the host's speed swings slow it about
    as much as they slow the solves; run.py scales every time by it.
    """
    import numpy

    a = numpy.linspace(0.0, 1.0, 6400).reshape(800, 8)
    b = numpy.linspace(0.0, 1.0, 64).reshape(8, 8)
    start = time.perf_counter()
    total = 0.0
    for _ in range(600):
        total += float(numpy.exp(-(a @ b)).sum())
        for i in range(300):
            total += i * 0.5
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import scipy

    import fimalloc
    if not Path(fimalloc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"fimalloc imported from {fimalloc.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    tracer = hooks = None
    if args.trace:
        tracer = tracing.Tracer()
        hooks = tracing.install(tracer)
    inputs = workloads.setup(args.workload, args.seed, WORKDIR)
    report = {"setup_s": time.monotonic() - args.spawned}

    probe_s = [probe() for _ in range(PROBE_REPS)]
    caches_before = tracing.cache_state()
    start = time.perf_counter()
    solves = workloads.run(args.workload, inputs)
    wall_s = time.perf_counter() - start
    caches_after = tracing.cache_state()
    probe_s += [probe() for _ in range(PROBE_REPS)]
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    start = time.perf_counter()
    problems, failed, checks = workloads.check(args.workload, inputs, solves, WORKDIR)
    verify_s = time.perf_counter() - start

    report.update({
        "wall_s": wall_s,
        "probe_s": probe_s,
        "peak_rss_mb": peak_rss_mb,
        "solves": [{"algorithm": s.algorithm, "p_tot": s.p_tot, "ms": s.ms,
                    "error": s.error} for s in solves],
        "headline": workloads.WORKLOADS[args.workload].headline,
        "attempted": len(workloads.WORKLOADS[args.workload].solves),
        "failed": failed,
        "problems": problems,
        "env": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                "threads": os.environ.get("OMP_NUM_THREADS", "unset")},
    })
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, hooks, caches_before, caches_after, wall_s)
        layers["verify.busy_s"] = verify_s
        layers["verify.checks"] = checks
        report["layers"] = layers
        report["missing_hooks"] = tracer.missing
        report["per_solve"] = tracing.per_solve(tracer, hooks)
        tracer.save(WORKDIR / f"spans-{args.workload}-seed{args.seed}.npz")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
