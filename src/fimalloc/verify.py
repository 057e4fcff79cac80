"""Oracle checks: simulation, finite differences, and exhaustive enumeration.

Each suite cross-validates one analytic component against an independent
route: the confusion matrix and cell probabilities against Monte Carlo
channel/quantizer simulation, the information contribution against a
Monte Carlo expectation over the unknown vector (sharing only the kernel
formula, fisher._kernel_sum, with the quadrature path), its power-derivative
against central finite differences, the knapsack program (the DP and the
certified marginal-analysis path) against full enumeration, and the
continuous power split against a fine grid search.
The CLI's verify command and the acceptance tests both run these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from . import fisher, model, quantcomm, solvers

DEFAULT_SEED = 20240817


@dataclass(frozen=True)
class CheckResult:
    """One oracle comparison: measured discrepancy against its threshold."""

    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"[{status}] {self.name}: measured={self.measured:.6g} threshold={self.threshold:.6g}"
        if self.detail:
            text += f" ({self.detail})"
        return text


def _worst_z(analytic: np.ndarray, empirical: np.ndarray, trials: int) -> float:
    """Largest |empirical - analytic| in binomial standard deviations.

    A zero-variance entry scores 0 when the two agree exactly, else inf.
    """
    sigma = np.sqrt(np.maximum(analytic * (1.0 - analytic), 0.0) / trials)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(empirical - analytic) / sigma
    z = np.where(sigma == 0.0, np.where(empirical == analytic, 0.0, np.inf), z)
    return float(np.max(z))


def check_alpha(trials: int = 100_000, seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Analytic confusion matrix within 4 binomial sigma of simulation."""
    sensor = model.homogeneous_network(1).sensors[0]
    results = []
    for k, power in enumerate((2.0, 3.0 / 0.49, 20.0)):
        analytic = quantcomm.alpha_matrix(power, sensor)
        empirical = quantcomm.mc_alpha_oracle(power, sensor, trials, seed + k)
        worst = _worst_z(analytic, empirical, trials)
        results.append(
            CheckResult(
                name=f"alpha vs simulation, power={power:.4g}",
                passed=worst <= 4.0,
                measured=worst,
                threshold=4.0,
                detail=f"{trials} trials per column",
            )
        )
    return results


def check_beta(trials: int = 1_000_000, seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Analytic cell probabilities within 4 binomial sigma of simulation."""
    sensor = model.homogeneous_network(1).sensors[0]
    quantizer = quantcomm.make_quantizer(sensor.bits, sensor.tau)
    results = []
    for k, s in enumerate((0.0, 1.0, -2.5)):
        analytic = quantcomm.beta(s, quantizer, sensor.sigma_n)
        empirical = quantcomm.mc_beta_oracle(s, sensor, trials, seed + 100 + k)
        worst = _worst_z(analytic, empirical, trials)
        results.append(
            CheckResult(
                name=f"beta vs simulation, s={s:.4g}",
                passed=worst <= 4.0,
                measured=worst,
                threshold=4.0,
                detail=f"{trials} draws",
            )
        )
    return results


def mc_t_oracle(power: float, sensor: model.Sensor, prior: model.Prior,
                trials: int, seed: int) -> float:
    """Monte Carlo estimate of the information contribution at one power.

    Draws the unknown vector from the prior, projects each draw through the
    sensor gain, and averages the information kernel with equal weights,
    bypassing both the one-dimensional reduction and the quadrature rule
    used by the analytic path.
    """
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(prior.covariance)
    theta = rng.standard_normal((trials, prior.q)) @ chol.T
    s = theta @ sensor.gain
    quantizer = quantcomm.make_quantizer(sensor.bits, sensor.tau)
    cells = quantcomm._cell_tables(s, quantizer, sensor.sigma_n)
    weights = np.full(trials, 1.0 / trials)
    prefactor = float(sensor.gain @ sensor.gain) / (2.0 * math.pi * sensor.sigma_n ** 2)
    return prefactor * fisher._kernel_sum(weights, cells, quantcomm.alpha_matrix(power, sensor))


def check_tk(trials: int = 100_000, seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Quadrature value of t within 2% of the Monte Carlo expectation."""
    network = model.homogeneous_network(1)
    sensor, prior = network.sensors[0], network.prior
    results = []
    for k, power in enumerate((1.0, 10.0, 30.0)):
        quad = fisher.t_k(power, sensor, prior)
        mc = mc_t_oracle(power, sensor, prior, trials, seed + 200 + k)
        rel = abs(quad - mc) / abs(mc)
        results.append(
            CheckResult(
                name=f"t quadrature vs Monte Carlo, power={power:.4g}",
                passed=rel <= 0.02,
                measured=rel,
                threshold=0.02,
                detail=f"quad={quad:.6g} mc={mc:.6g}",
            )
        )
    return results


def _random_sensor(rng: np.random.Generator, prior: model.Prior) -> model.Sensor:
    gain = rng.uniform(0.2, 2.0, size=prior.q)
    sigma_n = rng.uniform(0.5, 1.5)
    return model.Sensor(
        gain=gain,
        sigma_n=sigma_n,
        h_mag=rng.uniform(0.4, 1.0),
        sigma_nu=rng.uniform(0.6, 1.4),
        bits=int(rng.integers(1, 4)),
        tau=model.make_tau(gain, sigma_n, prior),
    )


def check_grad(trials: int = 20, seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Analytic dt/dP within 1e-4 relative of central finite differences, at `trials` points."""
    rng = np.random.default_rng(seed + 300)
    prior = model.make_prior(model.DEFAULT_COVARIANCE)
    worst = 0.0
    worst_at = ""
    for _ in range(trials):
        sensor = _random_sensor(rng, prior)
        power = float(np.exp(rng.uniform(math.log(0.3), math.log(50.0))))
        analytic = fisher.t_k_derivative(power, sensor, prior)
        h = 1e-4 * power
        kernel = fisher.InfoKernel(sensor, prior, split=2)
        fd = (kernel.t(power + h) - kernel.t(power - h)) / (2.0 * h)
        rel = abs(analytic - fd) / max(abs(fd), 1e-300)
        if rel > worst:
            worst = rel
            worst_at = f"power={power:.4g} bits={sensor.bits}"
    return [
        CheckResult(
            name=f"dt/dP vs finite differences ({trials} points)",
            passed=worst <= 1e-4,
            measured=worst,
            threshold=1e-4,
            detail=worst_at,
        )
    ]


def enumerate_mckp(value_table: np.ndarray, n: int) -> float:
    """Best discretized objective over columns 0..n by full enumeration (row-order sums)."""
    return solvers.enumerate_mckp_table(value_table[:, :n + 1])[1]


def mckp_marginal_on_table(table: np.ndarray, on_fallback=None) -> solvers.Allocation:
    """The network solver's marginal-analysis path, reading its entries from a table.

    The grid is 0..n with p_tot = n, as in check_mckp.  on_fallback, if
    given, is called when the certificate sends the table to the DP.  The
    certificate gets no bounds, so it reads every entry its chain visits.
    """
    n = table.shape[1] - 1

    def tabulate():
        if on_fallback is not None:
            on_fallback()
        return table

    return solvers._mckp_marginal(lambda row, j: float(table[row, j]), table.shape[0],
                                  solvers.make_power_grid(float(n), n), float(n), 0.0,
                                  tabulate, lambda row, j: None)


def _against_enumeration(name: str, tables: list, solve, marginal: bool = False) -> CheckResult:
    """solve(table) exactly matches enumerate_mckp on every table.

    With `marginal`, solve is mckp_marginal_on_table, and the detail counts
    the tables its certificate sent to the DP.
    """
    mismatches = 0
    worst = 0.0
    fallbacks = []
    for table in tables:
        alloc = solve(table, lambda: fallbacks.append(table)) if marginal else solve(table)
        diff = abs(alloc.objective - enumerate_mckp(table, table.shape[1] - 1))
        worst = max(worst, diff)
        if diff != 0.0:
            mismatches += 1
    detail = f"largest objective gap {worst:.3g}"
    if marginal:
        detail += f", {len(fallbacks)} sent to the DP"
    return CheckResult(
        name=name,
        passed=mismatches == 0,
        measured=float(mismatches),
        threshold=0.0,
        detail=detail,
    )


def check_mckp(trials: int = 50, seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Knapsack DP and marginal analysis exactly match exhaustive enumeration.

    The DP and the marginal-analysis path both solve `trials` random nondecreasing
    tables, whose rows are mostly not concave, so most reach the DP through
    the certificate; the marginal path also solves `trials` random concave
    tables, which its certificate clears.
    """
    rng = np.random.default_rng(seed + 400)
    sorted_tables = []
    for _ in range(trials):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(2, 7))
        table = np.sort(rng.uniform(0.0, 1.0, size=(k, n + 1)), axis=1)
        table[:, 0] = 0.0
        sorted_tables.append(table)
    rng = np.random.default_rng(seed + 401)
    concave_tables = []
    for _ in range(trials):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(2, 7))
        steps = -np.sort(-rng.uniform(0.0, 1.0, size=(k, n)), axis=1)
        concave_tables.append(np.hstack([np.zeros((k, 1)), np.cumsum(steps, axis=1)]))

    def dp(table):
        n = table.shape[1] - 1
        return solvers.solve_mckp(table, solvers.make_power_grid(float(n), n), float(n))

    return [
        _against_enumeration(f"knapsack DP vs enumeration ({trials} instances)",
                             sorted_tables, dp),
        _against_enumeration(f"marginal analysis vs enumeration ({trials} instances)",
                             sorted_tables, mckp_marginal_on_table, marginal=True),
        _against_enumeration(
            f"marginal analysis vs enumeration ({trials} concave instances)",
            concave_tables, mckp_marginal_on_table, marginal=True),
    ]


def check_p3(seed: int = DEFAULT_SEED, grid_steps: int = 2000) -> List[CheckResult]:
    """Continuous power split within 1e-5 relative of a fine grid search."""
    prior = model.make_prior(model.DEFAULT_COVARIANCE)
    sensors = tuple(model.homogeneous_network(1, gain).sensors[0]
                    for gain in ((4.0, 4.0 / 9.0), (1.0, 1.0)))
    network = model.Network(sensors=sensors, prior=prior)
    p_tot = 10.0
    powers = solvers.solve_power_allocation([0, 1], network, p_tot)
    kern0, kern1 = fisher._kernels(network, sensors)  # the kernels the split read
    achieved = kern0.t(float(powers[0])) + kern1.t(float(powers[1]))

    grid = np.arange(grid_steps + 1) * (p_tot / grid_steps)
    t0 = np.array([kern0.t(float(p)) for p in grid])
    t1 = np.array([kern1.t(float(p)) for p in grid])
    pair_sum = t0[:, None] + t1[None, :]
    idx = np.arange(grid_steps + 1)
    pair_sum[idx[:, None] + idx[None, :] > grid_steps] = -np.inf
    best_grid = float(np.max(pair_sum))
    rel = abs(achieved - best_grid) / best_grid
    return [
        CheckResult(
            name="continuous split vs 2-D grid search",
            passed=rel <= 1e-5,
            measured=rel,
            threshold=1e-5,
            detail=f"solver={achieved:.8g} grid={best_grid:.8g}",
        )
    ]


SUITES = {
    "alpha": check_alpha,
    "beta": check_beta,
    "tk": check_tk,
    "grad": check_grad,
    "mckp": check_mckp,
    "p3": check_p3,
}


def run_suite(name: str, trials: int = 0, seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Run one named suite (or 'all'); trials > 0 sets every suite's sample count (p3,
    which samples nothing, is the one exception), and 0 keeps each suite's default."""
    if name == "all":
        results = []
        for suite in SUITES:
            results.extend(run_suite(suite, trials=trials, seed=seed))
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    if trials > 0 and name != "p3":
        return SUITES[name](trials=trials, seed=seed)
    return SUITES[name](seed=seed)
