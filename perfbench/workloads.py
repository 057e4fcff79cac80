"""The benchmark's workloads: inputs made from the seed, the timed solves, the checks.

Every K=20 workload solves the deployment `generate_deployment(42, 20)`,
which is the repository's golden scenario, with its sensors relabelled by a
permutation drawn from the workload seed.  Relabelling changes the input the
program sees but neither the work nor the objectives, so the seed cannot
move the figures.  Fresh random deployments would: one greedy solve at
p_tot=5 takes from 0.06 s to 3.3 s over deployment seeds 42 to 46.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from fimalloc import cli, model, solvers
from fimalloc.errors import FimallocError

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_SCENARIO = ROOT / "tests" / "fixtures" / "golden_k20_seed42.json"
GOLDEN_OBJECTIVES = ROOT / "tests" / "fixtures" / "golden_objectives.json"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

DEPLOYMENT_SEED = 42
K = 20
MCKP_N = 100
HOMOGENEOUS_EPS0 = 1e-5
OBJECTIVE_RTOL = 1e-9


def _relabelled(network: model.Network, seed: int) -> model.Network:
    """The same sensors in the order of a permutation drawn from `seed`."""
    order = np.random.default_rng(seed).permutation(network.k)
    geometry = network.geometry
    return model.Network(
        sensors=tuple(network.sensors[i] for i in order),
        prior=network.prior,
        geometry=dataclasses.replace(geometry, sensor_positions=geometry.sensor_positions[order]),
    )


def _k20(seed: int) -> model.Network:
    return _relabelled(model.generate_deployment(DEPLOYMENT_SEED, K), seed)


def _homogeneous(seed: int) -> model.Network:
    return model.homogeneous_network(10)


@dataclass(frozen=True)
class Workload:
    """A closed loop of solves on one network; `headline` is fastest_solve_ms's algorithm."""

    headline: str
    make_network: Callable[[int], model.Network]
    solves: tuple            # (algorithm, p_tot) pairs, in the order they run; library
                             # workloads run greedy, the CLI one whatever it lists
    eps0: float = solvers.DEFAULT_EPS0
    through_cli: bool = False
    golden: bool = False     # also check against tests/fixtures/golden_objectives.json


# Each cycle lasts a few seconds at most, so a run holds many of them.  The
# reference machine's speed changes by up to 2x for seconds at a time, and
# only the fastest of many short solves reads the same from run to run.
WORKLOADS = {
    "greedy-k20": Workload("greedy", _k20, (("greedy", 5.0),), golden=True),
    "sweep-k20": Workload("mckp", _k20,
                          tuple((alg, p) for p in cli.DEFAULT_SWEEP_GRID
                                for alg in ("mckp", "ufa", "usu")),
                          through_cli=True, golden=True),
    "homog-k10": Workload("greedy", _homogeneous, (("greedy", 5.0),), eps0=HOMOGENEOUS_EPS0),
}


@dataclass
class Solve:
    """One solve's outcome; `allocation` is None when it came back through the CLI."""

    algorithm: str
    p_tot: float
    ms: float
    objective: Optional[float] = None
    num_selected: Optional[int] = None
    allocation: Optional[solvers.Allocation] = None
    error: Optional[str] = None

    @property
    def label(self) -> str:
        return f"{self.algorithm}@{self.p_tot:g}"


@dataclass
class Inputs:
    network: model.Network
    scenario: Optional[Path] = None   # written for the CLI workload
    out: Optional[Path] = None


def setup(name: str, seed: int, workdir: Path) -> Inputs:
    """Build the workload's inputs; the CLI workload also writes its scenario file."""
    workload = WORKLOADS[name]
    network = workload.make_network(seed)
    if not workload.through_cli:
        return Inputs(network)
    scenario = workdir / f"{name}-seed{seed}.json"
    model.save_scenario(network, scenario)
    return Inputs(network, scenario, workdir / f"{name}-seed{seed}.csv")


def _run_cli(workload: Workload, inputs: Inputs) -> list:
    argv = ["sweep", "--scenario", str(inputs.scenario), "--alg", "ufa,usu,mckp",
            "--grid-n", str(MCKP_N), "--out", str(inputs.out)]
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        return [Solve(alg, p, math.nan, error=f"fimalloc sweep exited {code}")
                for alg, p in workload.solves]
    solves = []
    for row in cli.read_sweep_csv(inputs.out):
        solve = Solve(row["algorithm"], row["ptot"], row["wall_time_ms"],
                      error=row["diagnostic"] or None)
        if solve.error is None:
            solve.objective, solve.num_selected = row["tr_j"], row["num_selected"]
        solves.append(solve)
    return solves


def run(name: str, inputs: Inputs) -> list:
    """Every solve of one cycle, each with its wall time in ms."""
    workload = WORKLOADS[name]
    if workload.through_cli:
        return _run_cli(workload, inputs)
    solves = []
    for algorithm, p_tot in workload.solves:
        start = time.perf_counter()
        try:
            alloc = solvers.solve_greedy(inputs.network, p_tot, workload.eps0)
        except FimallocError as exc:
            solves.append(Solve(algorithm, p_tot, 1e3 * (time.perf_counter() - start),
                                error=f"{type(exc).__name__}: {exc}"))
            continue
        solves.append(Solve(algorithm, p_tot, 1e3 * (time.perf_counter() - start),
                            alloc.objective, alloc.num_selected, alloc))
    return solves


def _expected(name: str) -> list:
    """(source, table) pairs of expected objectives keyed by solve label."""
    tables = []
    with open(REFERENCE, encoding="utf-8") as fh:
        tables.append(("reference", json.load(fh).get(name, {})))
    if WORKLOADS[name].golden:
        with open(GOLDEN_OBJECTIVES, encoding="utf-8") as fh:
            golden = json.load(fh)
        tables.append(("golden", {f"{alg}@{float(p):g}": value
                                  for p, row in golden.items() for alg, value in row.items()}))
    return tables


def _deployment_problems(name: str, workdir: Path) -> list:
    """The K=20 deployment must be byte-identical to the golden scenario."""
    if not WORKLOADS[name].golden:
        return []
    path = workdir / f"{name}-unrelabelled.json"
    model.save_scenario(model.generate_deployment(DEPLOYMENT_SEED, K), path)
    if path.read_bytes() != GOLDEN_SCENARIO.read_bytes():
        return [f"generate_deployment({DEPLOYMENT_SEED}, {K}) differs from {GOLDEN_SCENARIO.name}"]
    return []


def check(name: str, inputs: Inputs, solves: list, workdir: Path):
    """Correctness checks, run outside the timed region.

    Returns (problems, failed, checks): the messages, how many of the
    workload's solves raised or failed a check, and how many checks ran.
    A wrong deployment fails every solve.
    """
    workload = WORKLOADS[name]
    deployment = _deployment_problems(name, workdir)
    problems = list(deployment)
    checks = 1 if workload.golden else 0
    expected = {f"{alg}@{p:g}" for alg, p in workload.solves}
    seen = [solve.label for solve in solves]
    failing = {label for label in expected | set(seen)
               if label not in expected or seen.count(label) != 1}
    problems.extend(f"{label}: expected once, ran {seen.count(label)} time(s)"
                    for label in sorted(failing))
    tables = _expected(name)
    for solve in solves:
        issues = [] if solve.error is None else [solve.error]
        if solve.error is None and solve.allocation is not None:
            checks += 1
            try:
                solvers.verify_allocation(solve.allocation, inputs.network, solve.p_tot)
            except (FimallocError, ValueError) as exc:
                issues.append(f"verify_allocation: {exc}")
        for source, table in tables if solve.error is None else ():
            want = table.get(solve.label)
            if want is None:
                continue
            checks += 1
            if abs(solve.objective - want["objective"]) > OBJECTIVE_RTOL * abs(want["objective"]):
                issues.append(f"{source} objective {want['objective']!r}, got {solve.objective!r}")
            if solve.num_selected != want["num_selected"]:
                issues.append(f"{source} num_selected {want['num_selected']}, "
                              f"got {solve.num_selected}")
        if issues:
            failing.add(solve.label)
            problems.extend(f"{solve.label}: {issue}" for issue in issues)
    failed = len(expected) if deployment else min(len(failing), len(expected))
    return problems, failed, checks
