"""Command-line harness: scenario generation, solves, sweeps, verification.

Subcommands:
    gen     write a scenario file (random deployment or homogeneous network)
    solve   run one algorithm on a scenario and write the allocation CSV
    sweep   run algorithms across a budget grid and write trend rows as CSV
    verify  run the oracle suites and report pass/fail per check

A sweep runs `solvers.sweep`, which owns the budget order (largest first,
so mckp's certificates at the smaller budgets find bounds among the t
values the larger ones memoized), and writes its rows sorted by budget,
then algorithm.  Each objective equals a lone `solve`'s at that budget;
each wall_time_ms times its own solve, so the first one also carries the
kernel builds.

Exit codes: 0 ok, 2 usage, a numeric flag out of range or an --out that
cannot be opened for writing, 3 generation or scenario-loading failure,
4 solver failure, 5 verification failure.  All data outputs are
deterministic given the flags (wall-time columns excepted).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import model, solvers, verify
from .errors import FimallocError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GENERATION = 3
EXIT_SOLVER = 4
EXIT_VERIFY = 5

DEFAULT_SWEEP_GRID = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0]


def write_allocation_csv(alloc: solvers.Allocation, p_tot: float, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(
            f"# algorithm={alloc.algorithm} ptot={p_tot!r} "
            f"objective={alloc.objective!r} iterations={alloc.iterations}\n"
        )
        fh.write("sensor_id,selected,power\n")
        for i in range(alloc.selection.size):
            fh.write(f"{i},{int(alloc.selection[i])},{float(alloc.powers[i])!r}\n")


def read_allocation_csv(path):
    """Read back an allocation CSV; returns (header dict, selection, powers)."""
    with open(path, "r", encoding="utf-8") as fh:
        comment = fh.readline().strip()
        if not comment.startswith("# "):
            raise ValueError("allocation CSV must start with a header comment")
        header = dict(item.split("=", 1) for item in comment[2:].split(" "))
        reader = csv.DictReader(fh)
        selection, powers = [], []
        for row in reader:
            selection.append(int(row["selected"]))
            powers.append(float(row["power"]))
    return header, np.array(selection, dtype=np.int8), np.array(powers)


SWEEP_COLUMNS = ("ptot", "algorithm", "tr_j", "num_selected", "wall_time_ms",
                 "scenario_id", "seed", "diagnostic")


def read_sweep_csv(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for record in csv.DictReader(fh):
            record["ptot"] = float(record["ptot"])
            record["tr_j"] = float(record["tr_j"])
            record["num_selected"] = int(record["num_selected"])
            record["wall_time_ms"] = float(record["wall_time_ms"])
            rows.append(record)
    return rows


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _at_least(minimum: int):
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text!r}")
        return value
    return count


def _parse_gain(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad gain vector {text!r}") from exc


def _out_unwritable(path) -> bool:
    """Report an --out that cannot be opened for writing, before any solve runs.

    The file is opened for appending, so it is created if missing but an
    existing file keeps its contents until the command writes it.
    """
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        print(f"cannot write --out {path!r}: {exc.strerror}", file=sys.stderr)
        return True
    return False


def cmd_gen(args) -> int:
    try:
        if args.k is None:
            args.k = 10 if args.homogeneous else 20
        link = dict(sigma_n=args.sigma_n, sigma_nu=args.sigma_nu, h_mag=args.h_mag,
                    bits=args.bits)
        if args.homogeneous:
            gain = args.gain if args.gain is not None else model.DEFAULT_GAIN
            network = model.homogeneous_network(args.k, gain=gain, **link)
        else:
            network = model.generate_deployment(
                args.seed, args.k, field_half_width=args.field_half_width,
                decay_exponent=args.decay_exponent, d_min=args.d_min, **link)
        model.save_scenario(network, args.out)
    except (FimallocError, OSError, ValueError) as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    print(f"wrote {args.out}: K={network.k} q={network.prior.q} seed={network.seed}")
    return EXIT_OK


def cmd_solve(args) -> int:
    try:
        network = model.load_scenario(args.scenario)
    except (FimallocError, OSError) as exc:
        print(f"cannot load scenario: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    if args.out and _out_unwritable(args.out):
        return EXIT_USAGE
    try:
        alloc = solvers.SOLVERS[args.alg](network, args.ptot, args.grid_n, args.eps0)
    except FimallocError as exc:
        print(f"solver failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    if args.out:
        write_allocation_csv(alloc, args.ptot, args.out)
    print(f"objective={alloc.objective!r} selected={alloc.num_selected}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        network = model.load_scenario(args.scenario)
    except (FimallocError, OSError) as exc:
        print(f"cannot load scenario: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    if args.ptot_min is not None or args.ptot_max is not None:
        if args.ptot_min is None or args.ptot_max is None:
            print("sweep needs both --ptot-min and --ptot-max", file=sys.stderr)
            return EXIT_USAGE
        grid = list(np.linspace(args.ptot_min, args.ptot_max, args.steps))
    else:
        grid = list(DEFAULT_SWEEP_GRID)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        print("sweep grid must be ascending", file=sys.stderr)
        return EXIT_USAGE
    algorithms = [a.strip() for a in args.alg.split(",")]
    for name in algorithms:
        if name not in solvers.SOLVERS:
            print(f"unknown algorithm {name!r}", file=sys.stderr)
            return EXIT_USAGE
    if _out_unwritable(args.out):
        return EXIT_USAGE
    scenario_id = Path(args.scenario).stem
    seed = network.seed if network.seed is not None else ""
    cells = solvers.sweep(network, grid, algorithms, args.grid_n, args.eps0)
    failures = sum(isinstance(result, FimallocError) for _, _, result, _ in cells)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for p_tot, name, result, seconds in cells:
            if isinstance(result, FimallocError):
                tr_j, selected, diagnostic = math.nan, 0, f"{type(result).__name__}: {result}"
            else:
                tr_j, selected, diagnostic = result.objective, result.num_selected, ""
            writer.writerow([repr(p_tot), name, repr(tr_j), selected, repr(1000.0 * seconds),
                             scenario_id, seed, diagnostic])
    if failures:
        print(f"wrote {args.out} with {failures} failed cell(s)", file=sys.stderr)
    else:
        print(f"wrote {args.out}: {len(cells)} rows")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        results = verify.run_suite(args.suite, trials=args.trials, seed=args.seed)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    for result in results:
        print(result.line())
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_VERIFY if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fimalloc",
        description="Sensor selection and power allocation maximizing the "
                    "trace of the Bayesian information matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a scenario file")
    gen.add_argument("--k", type=int, default=None,
                     help="sensor count (default 20, or 10 with --homogeneous)")
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", required=True)
    gen.add_argument("--homogeneous", action="store_true",
                     help="identical sensors sharing one gain vector")
    gen.add_argument("--gain", type=_parse_gain, default=None,
                     help="comma-separated gain vector for --homogeneous")
    gen.add_argument("--sigma-n", type=float, default=model.DEFAULT_SIGMA_N)
    gen.add_argument("--sigma-nu", type=float, default=model.DEFAULT_SIGMA_NU)
    gen.add_argument("--h-mag", type=float, default=model.DEFAULT_H_MAG)
    gen.add_argument("--bits", type=int, default=model.DEFAULT_BITS)
    gen.add_argument("--field-half-width", type=float,
                     default=model.DEFAULT_FIELD_HALF_WIDTH)
    gen.add_argument("--decay-exponent", type=float,
                     default=model.DEFAULT_DECAY_EXPONENT)
    gen.add_argument("--d-min", type=float, default=model.DEFAULT_D_MIN)
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="run one algorithm on a scenario")
    solve.add_argument("--scenario", required=True)
    solve.add_argument("--alg", required=True, choices=tuple(solvers.SOLVERS))
    solve.add_argument("--ptot", type=_positive_float, required=True)
    solve.add_argument("--grid-n", type=_at_least(1), default=solvers.DEFAULT_GRID_N)
    solve.add_argument("--eps0", type=_positive_float, default=solvers.DEFAULT_EPS0)
    solve.add_argument("--out", default=None)
    solve.set_defaults(func=cmd_solve)

    sweep = sub.add_parser("sweep", help="run algorithms over a budget grid")
    sweep.add_argument("--scenario", required=True)
    sweep.add_argument("--alg", default="ufa,usu,greedy,mckp",
                       help="comma-separated algorithm list")
    sweep.add_argument("--ptot-min", type=_positive_float, default=None)
    sweep.add_argument("--ptot-max", type=_positive_float, default=None)
    sweep.add_argument("--steps", type=_at_least(1), default=10)
    sweep.add_argument("--grid-n", type=_at_least(1), default=solvers.DEFAULT_GRID_N)
    sweep.add_argument("--eps0", type=_positive_float, default=solvers.DEFAULT_EPS0)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_sweep)

    ver = sub.add_parser("verify", help="run the oracle suites")
    ver.add_argument("--suite", default="all",
                     choices=sorted(verify.SUITES) + ["all"])
    ver.add_argument("--trials", type=_at_least(0), default=0,
                     help="override the suite's sample count (0 = default)")
    ver.add_argument("--seed", type=_at_least(0), default=verify.DEFAULT_SEED)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
