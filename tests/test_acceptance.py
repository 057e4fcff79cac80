"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The homogeneous and heterogeneous budget sweeps
are computed once in session fixtures and shared by the criteria that
read them.
"""

import time

import numpy as np
import pytest

from fimalloc import cli, fisher, model, solvers, verify
from conftest import random_network

ALGORITHMS = ("ufa", "usu", "greedy", "mckp")
# Greedy's convergence knob for the homogeneous experiment: the 10th
# sensor's relative improvement at the smallest budget is about 1e-4, so
# exhibiting full activation needs eps0 below that.
HOMOGENEOUS_EPS0 = 1e-5


def _report(label, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {label}: {detail}")
    assert passed, f"{label}: {detail}"


def _sweep(network, eps0):
    """solvers.sweep over the CLI's default grid: {"table": {p_tot: {algorithm: Allocation}},
    "elapsed": seconds}; a solver error fails the fixture."""
    start = time.perf_counter()
    table = {}
    for p_tot, name, alloc, _ in solvers.sweep(network, cli.DEFAULT_SWEEP_GRID, ALGORITHMS,
                                               solvers.DEFAULT_GRID_N, eps0):
        if isinstance(alloc, Exception):
            raise alloc
        table.setdefault(p_tot, {})[name] = alloc
    return {"table": table, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="session")
def homogeneous_sweep():
    return {**_sweep(model.homogeneous_network(10), HOMOGENEOUS_EPS0), "k": 10}


@pytest.fixture(scope="session")
def golden_sweep(golden_network):
    return _sweep(golden_network, solvers.DEFAULT_EPS0)


def test_criterion_1_monotonicity(homogeneous_sweep):
    table = homogeneous_sweep["table"]
    worst = None
    for name in ALGORITHMS:
        objectives = [table[p][name].objective for p in cli.DEFAULT_SWEEP_GRID]
        for a, b in zip(objectives, objectives[1:]):
            if b <= a:
                worst = (name, a, b)
    elapsed = homogeneous_sweep["elapsed"]
    _report(
        "criterion 1 (objective strictly increasing in budget, homogeneous K=10)",
        worst is None and elapsed < 120.0,
        f"all four algorithms monotone over {cli.DEFAULT_SWEEP_GRID}, sweep took {elapsed:.0f}s"
        if worst is None else f"violation {worst}",
    )


def test_criterion_2_full_activation(homogeneous_sweep):
    table = homogeneous_sweep["table"]
    k = homogeneous_sweep["k"]
    failures = []
    worst_gap = 0.0
    for p in cli.DEFAULT_SWEEP_GRID:
        ufa_obj = table[p]["ufa"].objective
        for name in ("usu", "greedy", "mckp"):
            alloc = table[p][name]
            if alloc.num_selected != k:
                failures.append((p, name, alloc.num_selected))
            gap = abs(alloc.objective - ufa_obj) / ufa_obj
            worst_gap = max(worst_gap, gap)
            if gap > 0.005:
                failures.append((p, name, f"gap={gap:.3e}"))
    _report(
        "criterion 2 (full activation optimal on the homogeneous network)",
        not failures,
        f"usu/greedy/mckp select all {k} sensors everywhere, "
        f"worst objective gap to uniform baseline {worst_gap:.2e}"
        if not failures else f"failures: {failures[:4]}",
    )


def test_criterion_3_algorithm_ordering(golden_sweep):
    table = golden_sweep["table"]
    failures = []
    worst_gap = 0.0
    for p in cli.DEFAULT_SWEEP_GRID:
        greedy = table[p]["greedy"].objective
        usu = table[p]["usu"].objective
        ufa = table[p]["ufa"].objective
        mckp = table[p]["mckp"].objective
        if not (greedy >= usu >= ufa - 1e-9):
            failures.append((p, "ordering", greedy, usu, ufa))
        gap = abs(mckp - greedy) / greedy
        worst_gap = max(worst_gap, gap)
        if gap > 0.01:
            failures.append((p, "mckp-vs-greedy", gap))
    elapsed = golden_sweep["elapsed"]
    _report(
        "criterion 3 (greedy >= usu >= ufa and knapsack within 1% of greedy)",
        not failures and elapsed < 600.0,
        f"ordering holds at every budget, worst knapsack-greedy gap {worst_gap:.2e}, "
        f"sweep took {elapsed:.0f}s"
        if not failures else f"failures: {failures[:4]}",
    )


def test_criterion_4_selection_frugality(golden_sweep):
    table = golden_sweep["table"]
    failures = []
    for p in cli.DEFAULT_SWEEP_GRID:
        usu_n = table[p]["usu"].num_selected
        other = min(table[p]["greedy"].num_selected, table[p]["mckp"].num_selected)
        if usu_n > other:
            failures.append((p, usu_n, other))
    counts = {p: (table[p]["usu"].num_selected,
                  table[p]["greedy"].num_selected,
                  table[p]["mckp"].num_selected) for p in cli.DEFAULT_SWEEP_GRID}
    _report(
        "criterion 4 (usu never selects more sensors than greedy or knapsack)",
        not failures,
        f"(usu, greedy, mckp) counts per budget: {counts}"
        if not failures else f"failures: {failures}",
    )


def test_criterion_5_prior_baseline(golden_network):
    value = fisher.trace_fim(
        np.zeros(golden_network.k), np.zeros(golden_network.k), golden_network
    )
    error = abs(value - 17.0 / 3.0)
    _report(
        "criterion 5 (empty selection returns the prior baseline 17/3)",
        error < 1e-12,
        f"|trace - 17/3| = {error:.2e}",
    )


def test_criterion_6_probability_kernel_oracles():
    start = time.perf_counter()
    results = (
        verify.check_alpha(trials=100_000)
        + verify.check_beta(trials=1_000_000)
        + verify.check_tk(trials=100_000)
    )
    elapsed = time.perf_counter() - start
    failed = [r.line() for r in results if not r.passed]
    _report(
        "criterion 6 (confusion/cell kernels and t match Monte Carlo)",
        not failed and elapsed < 180.0,
        f"{len(results)} oracle comparisons passed in {elapsed:.0f}s"
        if not failed else f"failed: {failed}",
    )


def test_criterion_7_solver_oracles():
    start = time.perf_counter()
    results = (
        verify.check_mckp(trials=50)
        + verify.check_p3()
        + verify.check_grad(trials=20)
    )
    elapsed = time.perf_counter() - start
    failed = [r.line() for r in results if not r.passed]
    _report(
        "criterion 7 (knapsack, continuous split, derivative oracles)",
        not failed and elapsed < 180.0,
        f"{len(results)} solver oracle checks passed in {elapsed:.0f}s"
        if not failed else f"failed: {failed}",
    )


def test_criterion_8_structural_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(100):
        net = random_network(rng)
        p_tot = float(rng.uniform(1.0, 40.0))
        for alloc in (
            solvers.solve_ufa(net, p_tot),
            solvers.solve_usu(net, p_tot),
            solvers.solve_greedy(net, p_tot),
            solvers.solve_mckp_network(net, p_tot, 25),
        ):
            solvers.verify_allocation(alloc, net, p_tot)
            checked += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion 8 (feasibility and objective recomputation on fuzzed scenarios)",
        elapsed < 300.0,
        f"{checked} allocations over 100 random scenarios verified in {elapsed:.0f}s",
    )
