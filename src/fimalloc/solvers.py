"""Selection and power-allocation algorithms over a sensor network.

Four entry points returning feasible allocations under a shared power
budget: a uniform-full-activation baseline, a rank-then-sweep heuristic
(uniform power, top-i selection, sweep the cardinality), a greedy scheme
that re-optimizes continuous powers each time a sensor is added (skipping
candidates a Lagrangian dual bound rules out), and a
dynamic program over discretized power levels (one choice per sensor).
A brute-force enumerator over the same discretization serves as the
reference oracle for small instances.  SOLVERS maps each algorithm's name
to one call signature; the CLI's --alg choices are its keys.

The continuous subproblem (maximize the summed information of a fixed
active set subject to the budget) is concave and separable; it is solved
by bisection on the budget multiplier with a safeguarded Newton root per
sensor, falling back to projected gradient if the per-sensor derivative
turns out not to be monotone.  Each sensor's step is `_Curve.power`, the
maximizer of t(P) - lam * P; greedy's dual bound (`_dual_bounds`) sums the
matching `_Curve.term`s, so the clip-or-root rule is written once.  Twins
(equal Sensors, which compare by value) share one curve (`_shared_curves`):
greedy splits one candidate per twin slot, and each bisection step roots a
twin class once, with results bit-identical to treating every sensor apart.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConcavityViolation,
    ConcavityWarning,
    DimensionMismatch,
    GridMismatch,
    NoConvergence,
    TooLarge,
)
from .fisher import InfoKernel, t_k, tabulate_t, trace_fim
from .model import Network, Prior, Sensor

BUDGET_RTOL = 1e-8
KKT_RTOL = 1e-6
MAX_ITER = 10_000
POWER_FLOOR_SCALE = 1e-9
DEFAULT_EPS0 = 1e-3
BRUTE_MAX_K = 6
BRUTE_MAX_N = 8
# Relative slack on greedy's dual bound before it may skip a candidate or end
# a round.  The bound and the objective share one quadrature, so only rounding
# and the root tolerance could lift an objective above its bound; measured
# objectives sit at least 1e-10 relative below their bounds.
_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class Allocation:
    """Result of one solver run: who transmits, at what power, and the value.

    diagnostics holds (iteration, objective) pairs in the order the solver
    accepted them; its meaning varies per algorithm.
    """

    selection: np.ndarray   # (K,) 0/1
    powers: np.ndarray      # (K,) nonnegative, zero where unselected
    objective: float
    algorithm: str
    iterations: int
    diagnostics: tuple

    @property
    def num_selected(self) -> int:
        return int(np.sum(self.selection))


def _check_budget(p_tot: float) -> None:
    """Reject a budget that is not a positive finite number (NaN included)."""
    if not 0.0 < p_tot < math.inf:
        raise ValueError(f"p_tot must be positive and finite, got {p_tot}")


def make_power_grid(p_tot: float, n: int) -> np.ndarray:
    """Read-only uniform discretization of the budget: samples[j] = j * (p_tot / n), j = 0..n."""
    _check_budget(p_tot)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    samples = np.arange(n + 1) * (p_tot / n)
    samples.setflags(write=False)
    return samples


def _finish(selection, powers, objective, algorithm, iterations, diagnostics) -> Allocation:
    """Freeze copies of the result vectors, zero power where unselected, into an Allocation."""
    selection = np.asarray(selection, dtype=np.int8).copy()
    powers = np.asarray(powers, dtype=float).copy()
    powers[selection == 0] = 0.0
    selection.setflags(write=False)
    powers.setflags(write=False)
    return Allocation(
        selection=selection,
        powers=powers,
        objective=objective,
        algorithm=algorithm,
        iterations=iterations,
        diagnostics=tuple(diagnostics),
    )


def verify_allocation(alloc: Allocation, network: Network, p_tot: float) -> None:
    """Independent feasibility and objective re-check; raises on violation."""
    k = network.k
    if alloc.selection.shape != (k,) or alloc.powers.shape != (k,):
        raise DimensionMismatch("allocation vectors do not match the network size")
    if np.any(alloc.powers < 0.0):
        raise ValueError("allocation has a negative power")
    total = float(np.sum(alloc.powers))
    if total > p_tot * (1.0 + 1e-9):
        raise ValueError(f"allocation spends {total}, budget is {p_tot}")
    if np.any(alloc.powers[alloc.selection == 0] != 0.0):
        raise ValueError("unselected sensor carries nonzero power")
    recomputed = trace_fim(alloc.powers, alloc.selection, network)
    if abs(recomputed - alloc.objective) > 1e-9 * abs(recomputed):
        raise ValueError(
            f"stored objective {alloc.objective} differs from recomputed {recomputed}"
        )


# ---------------------------------------------------------------------------
# Baseline and ranking-based selection.
# ---------------------------------------------------------------------------

def solve_ufa(network: Network, p_tot: float) -> Allocation:
    """Uniform full activation: every sensor on, equal share of the budget."""
    _check_budget(p_tot)
    k = network.k
    selection, powers = np.ones(k), np.full(k, p_tot / k)
    return _finish(selection, powers, trace_fim(powers, selection, network), "ufa", 1, ())


def solve_usu(network: Network, p_tot: float) -> Allocation:
    """Rank under uniform power, then sweep the activation cardinality.

    Sensors are ranked once by their contribution at the all-on uniform
    power P/K (the ranking step is the same every iteration, so it is not
    repeated).  Picking i sensors by value relaxes to a box-constrained
    linear program whose optimum sits at a vertex, i.e. exactly the top-i
    indicator, so the selection of cardinality i is the i best-ranked
    sensors, ties going to the lower index.  For i = 1, 2, ... the top-i
    sensors get uniform power P/i; the sweep stops at the first i whose
    objective does not improve, or at i = K, and the best configuration
    seen is returned.
    """
    _check_budget(p_tot)
    k = network.k
    prior = network.prior
    t_uniform = np.array(
        [t_k(p_tot / k, s, prior) for s in network.sensors]
    )
    order = np.argsort(-t_uniform, kind="stable")
    diagnostics = []
    best = None
    objective_prev = 0.0
    for i in range(1, k + 1):
        chosen = order[:i]
        share = p_tot / i
        objective = prior.inverse_trace + sum(
            t_k(share, network.sensors[j], prior) for j in chosen
        )
        diagnostics.append((i, objective))
        if objective <= objective_prev:
            break
        best = (i, chosen, share)
        objective_prev = objective
    i, chosen, share = best
    selection = np.zeros(k)
    selection[chosen] = 1
    powers = np.zeros(k)
    powers[chosen] = share
    return _finish(selection, powers, trace_fim(powers, selection, network), "usu",
                   len(diagnostics), diagnostics)


# ---------------------------------------------------------------------------
# Continuous power allocation for a fixed active set.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerSolution:
    """Continuous subproblem output: powers plus solver diagnostics."""

    powers: np.ndarray
    multiplier: float
    kkt_residual: float
    iterations: int
    fallback: bool


def _newton_root(f: Callable[[float], float], lo: float, hi: float,
                 f_lo: float, x0: float, x_tol: float) -> float:
    """Root of a decreasing f on [lo, hi] with f(lo) = f_lo > 0 > f(hi).

    Newton-like secant steps through the last two evaluations, safeguarded
    by the shrinking bracket; steps leaving the bracket fall back to
    bisection.  Iterates to x accuracy (no residual shortcut), because a
    residual-based stop returns stale points on flat stretches of f and
    the budget loop upstream needs the summed response to keep moving.
    """
    x = min(max(x0, lo), hi)
    if x == lo or x == hi:
        x = 0.5 * (lo + hi)
    x_prev, f_prev = lo, f_lo
    for _ in range(100):
        fx = f(x)
        if fx == 0.0:
            return x
        if fx > 0.0:
            lo = x
        else:
            hi = x
        if hi - lo <= x_tol:
            break
        denom = fx - f_prev
        step = x - fx * (x - x_prev) / denom if denom != 0.0 and x != x_prev else math.nan
        x_prev, f_prev = x, fx
        x = step if lo < step < hi else 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def _project_budget(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto the simplex {x >= 0, sum x = total}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    rho = np.nonzero(u - css / np.arange(1, v.size + 1) > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _projected_gradient(t_primes: Sequence[Callable[[float], float]],
                        p_tot: float, floor: float,
                        steps: int = 400) -> np.ndarray:
    """Diminishing-step projected gradient ascent; fallback path only."""
    m = len(t_primes)
    powers = np.full(m, p_tot / m)
    for r in range(1, steps + 1):
        grad = np.array([tp(max(p, floor)) for tp, p in zip(t_primes, powers)])
        norm = float(np.linalg.norm(grad))
        if norm == 0.0:
            break
        powers = _project_budget(powers + (p_tot / math.sqrt(r)) * grad / norm, p_tot)
    return powers


class _Curve:
    """One sensor's t and t' on [floor, p_tot] for one budget.

    Evaluates t' at the power floor (POWER_FLOOR_SCALE * p_tot) and at
    p_tot once, when built; `concave` is False when t' rises between them.
    `power` is the per-sensor step of the budget split and `term` the
    per-sensor term of the Lagrangian bound; both reach the maximizer of
    t(P) - lam * P through the one clip-or-root rule below.  `t` is needed
    only by `term`.
    """

    def __init__(self, t_prime: Callable[[float], float], p_tot: float,
                 t: Callable[[float], float] | None = None):
        self.t_prime = t_prime
        self.t = t
        self.p_tot = p_tot
        self.floor = POWER_FLOOR_SCALE * p_tot
        self.at_floor = t_prime(self.floor)
        self.at_top = t_prime(p_tot)
        self.concave = not self.at_top > self.at_floor + 1e-12 * abs(self.at_floor) + 1e-300
        self._root = 0.5 * p_tot

    def _endpoint(self, lam: float) -> float | None:
        """The end of [floor, p_tot] where t(P) - lam * P peaks, or None if it peaks inside."""
        if self.at_floor - lam <= 0.0:
            return self.floor
        if self.at_top - lam >= 0.0:
            return self.p_tot
        return None

    def power(self, lam: float, x0: float) -> tuple:
        """Maximizer of t(P) - lam * P on [floor, p_tot], and whether it is interior.

        An interior maximizer is the root of t' = lam, warm-started at x0.
        """
        end = self._endpoint(lam)
        if end is not None:
            return end, False
        t_prime = self.t_prime
        return _newton_root(lambda x: t_prime(x) - lam, self.floor, self.p_tot,
                            self.at_floor - lam, x0, 1e-12 * self.p_tot), True

    def term(self, lam: float, power: float | None = None) -> float:
        """Upper bound on max_P [t(P) - lam * P] over [0, p_tot], for concave t.

        At the floor end the bound is t(floor), not t(floor) - lam * floor,
        which can undershoot the max over [0, floor].  `power` is a known
        interior maximizer, used as given; otherwise the root starts from
        the last root this curve found.
        """
        end = self._endpoint(lam)
        if end == self.floor:
            return self.t(self.floor)
        if end is not None:
            power = end
        elif power is None:
            power, _ = self.power(lam, self._root)
            self._root = power
        return self.t(power) - lam * power


def _allocate_power_core(curves: Sequence[_Curve], p_tot: float) -> PowerSolution:
    """Dual bisection on the budget multiplier over per-sensor curves.

    Factored out so tests can exercise the solver (including the projected
    gradient fallback) on synthetic derivative functions.  A one-sensor set
    takes the whole budget at multiplier t'(p_tot).  Twins share one curve
    object (see _shared_curves); within one bisection step, a curve already
    stepped from the same warm start reuses that (power, interior) pair
    instead of finding its root again.  `_Curve.power` depends only on the
    curve, the multiplier and the warm start, so the reuse is exact, and
    twins that start level stay level, which leaves one root per twin class
    per step.
    """
    m = len(curves)
    if m == 0:
        raise ValueError("active set must be nonempty")
    if m == 1:
        return PowerSolution(np.array([p_tot]), curves[0].at_top, 0.0, 0, False)

    if not all(curve.concave for curve in curves):
        # Derivative rises over the interval: the concavity the dual method
        # relies on does not hold.  Switch to projected gradient.
        warnings.warn(
            "derivative is not monotone over the power interval; "
            "falling back to projected gradient",
            ConcavityWarning,
        )
        powers = _projected_gradient([curve.t_prime for curve in curves], p_tot,
                                     curves[0].floor)
        if not np.all(np.isfinite(powers)):
            raise ConcavityViolation(
                "projected-gradient fallback produced non-finite powers"
            )
        return PowerSolution(powers, math.nan, math.inf, 0, True)

    lam_hi = float(np.max([curve.at_floor for curve in curves]))
    if lam_hi <= 0.0:
        # No sensor gains anything from power; split the budget evenly.
        return PowerSolution(np.full(m, p_tot / m), 0.0, 0.0, 0, False)
    lam_lo = 0.0
    powers = np.full(m, p_tot / m)
    interior = np.zeros(m, dtype=bool)
    total = math.inf
    iterations = 0
    while True:
        iterations += 1
        if iterations > MAX_ITER:
            raise NoConvergence(
                f"budget bisection did not reach {BUDGET_RTOL:g} relative after "
                f"{MAX_ITER} iterations"
            )
        lam = 0.5 * (lam_lo + lam_hi)
        step = {}
        for j, curve in enumerate(curves):
            key = (curve, powers[j])
            if key not in step:
                step[key] = curve.power(lam, powers[j])
            powers[j], interior[j] = step[key]
        total = float(np.sum(powers))
        if abs(total - p_tot) <= BUDGET_RTOL * p_tot:
            break
        if total > p_tot:
            lam_lo = lam
        else:
            lam_hi = lam
        if lam_hi - lam_lo <= 1e-16 * max(lam_hi, 1.0):
            raise NoConvergence(
                "multiplier bracket collapsed before the budget matched; "
                "the summed power response may be discontinuous"
            )
    # Stationarity holds for clipped sensors by the clip tests themselves;
    # check the interior coordinates against the final multiplier before the
    # (at most 1e-8 relative) feasibility rescale below, once per distinct
    # (curve, power) pair, as in the step.
    pairs = dict.fromkeys((curves[j], powers[j]) for j in np.nonzero(interior)[0])
    residual = max((abs(curve.t_prime(power) - lam) for curve, power in pairs), default=0.0)
    if residual > KKT_RTOL * max(lam, 1e-300):
        raise NoConvergence(
            f"stationarity residual {residual:.3e} exceeds {KKT_RTOL:g} * multiplier"
        )
    if total > p_tot:
        powers *= p_tot / total
    return PowerSolution(powers, lam, residual, iterations, False)


def _shared_curves(sensors: Sequence[Sensor], prior: Prior, p_tot: float) -> list:
    """One _Curve per sensor, with twins sharing one kernel and one curve.

    Twins are equal Sensors (Sensor compares by value): their t and t'
    agree at every power, so one curve per twin class takes each endpoint
    slope and builds its ladder rungs once.  `t` is the guarded
    `InfoKernel.t_checked` that trace_fim uses, so a bound and an objective
    share one quadrature.
    """
    classes: dict = {}
    curves = []
    for sensor in sensors:
        if sensor not in classes:
            kernel = InfoKernel(sensor, prior)
            classes[sensor] = _Curve(kernel.t_prime, p_tot, kernel.t_checked)
        curves.append(classes[sensor])
    return curves


def _check_active_set(active_set, k: int) -> list:
    """The active set as a list of distinct sensor indices in [0, k); raises ValueError."""
    indices = list(active_set)
    seen = set()
    for j in indices:
        if isinstance(j, (bool, np.bool_)) or not isinstance(j, (int, np.integer)):
            raise ValueError(f"active set index {j!r} is not an integer")
        if not 0 <= j < k:
            raise ValueError(f"active set index {j} is out of range for {k} sensors")
        if j in seen:
            raise ValueError(f"active set index {j} appears more than once")
        seen.add(j)
    return indices


def _power_allocation_detailed(active_set, network: Network, p_tot: float) -> PowerSolution:
    _check_budget(p_tot)
    active = _check_active_set(active_set, network.k)
    curves = _shared_curves([network.sensors[j] for j in active], network.prior, p_tot)
    return _allocate_power_core(curves, p_tot)


def solve_power_allocation(active_set, network: Network, p_tot: float) -> np.ndarray:
    """Optimal budget split over a fixed active set, aligned with active_set.

    Maximizes the summed information of the active sensors subject to the
    powers adding up to the budget.  Bisection on the budget multiplier
    drives each sensor's derivative to the common value; the budget matches
    within BUDGET_RTOL and the stationarity residual of interior sensors
    stays within KKT_RTOL of the multiplier.
    """
    return _power_allocation_detailed(active_set, network, p_tot).powers


# ---------------------------------------------------------------------------
# Greedy activation with continuous re-optimization.
# ---------------------------------------------------------------------------

def _dual_bounds(curves: Sequence[_Curve], baseline: float, p_tot: float, lam: float,
                 active: Sequence[int], powers: np.ndarray, candidates: Sequence[int]) -> dict:
    """Lagrangian upper bound UB_j on greedy's objective for each candidate j.

    For any multiplier lam >= 0, weak duality bounds every split of the
    budget over a set S by baseline + lam * p_tot + sum over i in S of
    max_P [t_i(P) - lam * P], each max taken over [0, p_tot] and bounded by
    `_Curve.term`.  `active` is split as `powers` at `lam`, so its interior
    members' powers are their maximizers.  Every bound is infinite when none
    applies: lam is not a finite nonnegative number, or a member's
    derivative rises.  A candidate whose derivative rises, or whose bound
    comes out NaN, gets an infinite bound too.  Twins at the same power
    share one term evaluation, summed once per member in index order.
    """
    if not (0.0 <= lam < math.inf and all(curves[i].concave for i in active)):
        return dict.fromkeys(candidates, math.inf)
    pairs = [(curves[i], powers[i]) for i in active]
    terms = {pair: pair[0].term(lam, pair[1]) for pair in dict.fromkeys(pairs)}
    base = baseline + lam * p_tot + sum(terms[pair] for pair in pairs)
    ub = {}
    for j in candidates:
        u = base + curves[j].term(lam) if curves[j].concave else math.inf
        ub[j] = math.inf if math.isnan(u) else u
    return ub


def solve_greedy(network: Network, p_tot: float, eps0: float = DEFAULT_EPS0) -> Allocation:
    """Add one sensor per round, re-optimizing the continuous power split.

    Every inactive sensor is a candidate for the next addition (its active
    set gets a fresh continuous solve); the best candidate joins, ties going
    to the lower index, and the loop stops once the relative objective
    improvement drops to eps0 or every sensor is active.  The last accepted
    configuration is returned.

    Each twin class (see _shared_curves) gets one _Curve for the solve,
    shared by the splits and the bound.  Each round, among inactive twins
    with the same number of active indices below them, only the lowest
    index is a candidate: a higher twin's split is the same list of curves,
    so its powers are bit-identical, and trace_fim, which adds in index
    order, puts its term in the same place, so its objective ties and the
    lower index wins.

    Candidates that cannot win are skipped without a solve.  With the
    accepted set A split at multiplier lam (the split reports t'(p_tot)
    for a single sensor), weak duality bounds each candidate's objective by
    UB_j = prior + lam * p_tot + sum over i in A + j of max_P [t_i(P) - lam * P]
    (see _dual_bounds).  A round whose largest bound, widened by
    _BOUND_SLACK, improves on the accepted objective by at most eps0
    relative stops the loop at once.  Otherwise candidates are solved in
    order of decreasing bound, ties by index, until the next widened bound
    falls below the best objective so far.  No bound is used after a
    projected-gradient split or a non-finite multiplier, and a candidate
    whose derivative rises over the power interval is always solved.  The
    result is the same as solving every candidate.
    """
    _check_budget(p_tot)
    if eps0 <= 0.0:
        raise ValueError(f"eps0 must be positive, got {eps0}")
    k = network.k
    curves = _shared_curves(network.sensors, network.prior, p_tot)
    active: list = []
    inactive = list(range(k))
    objective_prev = 1e-12
    accepted_powers = np.zeros(k)
    lam = math.nan
    diagnostics = []
    fallback_seen = False
    rounds = 0
    while inactive:
        slots: dict = {}
        for j in inactive:  # ascending, so each slot keeps its lowest twin
            slots.setdefault((curves[j], sum(i < j for i in active)), j)
        ub = _dual_bounds(curves, network.prior.inverse_trace, p_tot, lam,
                          active, accepted_powers, list(slots.values()))
        if (max(ub.values()) * (1.0 + _BOUND_SLACK) - objective_prev) / objective_prev <= eps0:
            break
        best_obj = -math.inf
        best_j = None
        best_solution = None
        for j in sorted(ub, key=lambda j: (-ub[j], j)):
            if ub[j] * (1.0 + _BOUND_SLACK) < best_obj:
                break
            candidate = active + [j]
            solution = _allocate_power_core([curves[i] for i in candidate], p_tot)
            powers_full = np.zeros(k)
            powers_full[candidate] = solution.powers
            selection = np.zeros(k)
            selection[candidate] = 1
            objective = trace_fim(powers_full, selection, network)
            if objective > best_obj or (objective == best_obj and j < best_j):
                best_obj = objective
                best_j = j
                best_solution = solution
        if (best_obj - objective_prev) / objective_prev <= eps0:
            break
        active.append(best_j)
        inactive.remove(best_j)
        accepted_powers = np.zeros(k)
        accepted_powers[active] = best_solution.powers
        fallback_seen = fallback_seen or best_solution.fallback
        lam = best_solution.multiplier
        objective_prev = best_obj
        rounds += 1
        diagnostics.append((rounds, best_obj))
    selection = np.zeros(k)
    selection[active] = 1
    label = "greedy(pg-fallback)" if fallback_seen else "greedy"
    return _finish(selection, accepted_powers, trace_fim(accepted_powers, selection, network),
                   label, rounds, diagnostics)


# ---------------------------------------------------------------------------
# Discretized formulation: one power level per sensor, shared capacity.
# ---------------------------------------------------------------------------

def solve_mckp(value_table, samples: np.ndarray, p_tot: float, *,
               baseline: float = 0.0) -> Allocation:
    """Exact optimum of the discretized problem by dynamic programming.

    value_table[k, j] is sensor k's contribution at samples[j], a grid from
    make_power_grid; the
    zero-power column lets the program leave a sensor out, which marks it
    unselected in the result.  Capacity runs over integer grid units, so
    the program is exact on the discretization.  Ties prefer the smaller
    grid index.  The prior's baseline is folded into the stored objective.
    """
    _check_budget(p_tot)
    table = np.asarray(value_table, dtype=float)
    if table.ndim != 2:
        raise GridMismatch(f"value table must be 2-D, got shape {table.shape}")
    k, cols = table.shape
    if cols != samples.size:
        raise GridMismatch(
            f"value table has {cols} columns, grid has {samples.size} samples"
        )
    if samples[0] != 0.0 or np.any(np.abs(table[:, 0]) > 1e-12):
        raise GridMismatch("grid must start at zero power with zero value")
    n = cols - 1
    if abs(samples[-1] - p_tot) > 1e-9 * max(p_tot, 1.0):
        raise GridMismatch(
            f"grid tops out at {samples[-1]}, budget is {p_tot}"
        )

    capacities = np.arange(n + 1)
    best = np.zeros(n + 1)
    choice = np.zeros((k, n + 1), dtype=np.int32)
    candidate = np.empty((n + 1, n + 1))
    for row in range(k):
        candidate.fill(-np.inf)
        for j in range(n + 1):
            candidate[j, j:] = best[: n + 1 - j] + table[row, j]
        choice_row = np.argmax(candidate, axis=0)  # first max: smallest j wins ties
        best = candidate[choice_row, capacities]
        choice[row] = choice_row

    units_left = n
    picks = np.zeros(k, dtype=int)
    for row in range(k - 1, -1, -1):
        picks[row] = choice[row, units_left]
        units_left -= picks[row]
    objective = baseline + float(best[n])
    return _finish(picks > 0, samples[picks], objective, "mckp", k, ((k, objective),))


def solve_mckp_network(network: Network, p_tot: float, n: int = 100) -> Allocation:
    """Tabulate the network's contributions on a fresh grid and run the DP."""
    samples = make_power_grid(p_tot, n)
    table = tabulate_t(network, samples)
    return solve_mckp(table, samples, p_tot, baseline=network.prior.inverse_trace)


def solve_bruteforce(network: Network, p_tot: float, n_small: int) -> Allocation:
    """Exhaustive search over every discretized assignment; small cases only."""
    k = network.k
    if k > BRUTE_MAX_K or n_small > BRUTE_MAX_N:
        raise TooLarge(
            f"brute force handles K <= {BRUTE_MAX_K} and N <= {BRUTE_MAX_N}, "
            f"got K={k}, N={n_small}"
        )
    if n_small < 1:
        raise ValueError(f"n_small must be >= 1, got {n_small}")
    samples = make_power_grid(p_tot, n_small)
    table = tabulate_t(network, samples)
    n1 = n_small + 1
    value = np.zeros((n1,) * k)
    units = np.zeros((n1,) * k, dtype=int)
    for row in range(k):
        shape = [1] * k
        shape[row] = n1
        j_axis = np.arange(n1).reshape(shape)
        value = value + table[row, j_axis]
        units = units + j_axis
    feasible = units <= n_small
    value = np.where(feasible, value, -np.inf)
    flat = int(np.argmax(value))  # C order: lexicographically smallest tie wins
    picks = np.array(np.unravel_index(flat, value.shape))
    objective = network.prior.inverse_trace + float(value.flat[flat])
    return _finish(picks > 0, samples[picks], objective, "brute",
                   int(np.sum(feasible)), ())


# Every algorithm behind one signature; the lambdas look each solver up at
# call time, so rebinding a module-level solver (as tracing does) reaches it.
SOLVERS = {
    "ufa": lambda network, p_tot, grid_n, eps0: solve_ufa(network, p_tot),
    "usu": lambda network, p_tot, grid_n, eps0: solve_usu(network, p_tot),
    "greedy": lambda network, p_tot, grid_n, eps0: solve_greedy(network, p_tot, eps0),
    "mckp": lambda network, p_tot, grid_n, eps0: solve_mckp_network(network, p_tot, grid_n),
    "brute": lambda network, p_tot, grid_n, eps0: solve_bruteforce(
        network, p_tot, min(grid_n, BRUTE_MAX_N)),
}
