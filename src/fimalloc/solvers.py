"""Selection and power-allocation algorithms over a sensor network.

Four entry points returning feasible allocations under a shared power
budget: a uniform-full-activation baseline, a rank-then-sweep heuristic
(uniform power, top-i selection, sweep the cardinality), a greedy scheme
that re-optimizes continuous powers each time a sensor is added (skipping
candidates a Lagrangian dual bound rules out), and the exact optimum over
discretized power levels (one choice per sensor).  The discretized problem
is solved by marginal analysis over lazily read t values, one grid unit at
a time to the largest next increment, and the result is certified by a
Lagrangian test per row (`_row_certified`).  Both take t values memoized
at larger powers as upper bounds in place of reads: the heap ranks a row
by its bounded increment and reads the entry only when the row reaches
the top, and the certificate clears entries with them.  A budget it
cannot certify falls back to tabulating every entry and the dynamic
program (`solve_mckp`), so the answer is always the program's optimum.
One exhaustive enumerator over the same discretization
(`enumerate_mckp_table`) serves as brute force and as the reference
oracle for small instances.  SOLVERS maps each algorithm's name
to one call signature; the CLI's --alg choices are its keys.  `sweep`, which
`fimalloc sweep` calls, runs algorithms over a list of budgets, largest first.

The continuous subproblem (maximize the summed information of a fixed
active set subject to the budget) is concave and separable, a root in
the budget multiplier (`_Curve` raises ConcavityViolation for a sensor
whose t' rises), and every split spends the budget to rounding.  Each
sensor's maximizer of t(P) - lam * P is an end of [0, p_tot] or the
root of t' = lam, bracketed by a `_SlopeTable` of the slopes already
evaluated and refined only as far as deciding the multiplier's side
needs, at points placed to settle that decision (`_aim`) and kept for
later steps.  The next multiplier is a regula-falsi step on the spend
the tables estimate at the multiplier bracket's ends.  Greedy ranks a
round's candidates lazily, as mckp's heap does (Minoux, 1978): each is
keyed by its zero-power tangent above the accepted multiplier, an upper
bound that costs no kernel pass, and only a key that reaches the top of
the heap while it could still decide the round is replaced by the exact
dual bound (`_dual_bounds`), the accepted objective plus the candidate's
`_Curve.term`, which roots through the same table, so the clip-or-root
rule is written once.  Twins (equal Sensors, which compare by value)
share one curve (`_shared_curves`), which takes their endpoint slopes
once, and greedy splits one candidate per twin slot.  A split whose
members are all one curve (one twin class) needs no search: equal
marginal utility puts every member at p_tot / m, and its multiplier
t'(p_tot / m) is taken only when read (see solve_greedy for the rounds
that take no bound and read no multiplier).
"""

from __future__ import annotations

import bisect
import heapq
import math
import time
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConcavityViolation,
    DimensionMismatch,
    FimallocError,
    GridMismatch,
    NoConvergence,
    TooLarge,
)
from .fisher import InfoKernel, _kernels, _objective, tabulate_t, trace_fim
from .model import Network, _integer
from .quantcomm import _unit_snr_power

BUDGET_RTOL = 1e-8
KKT_RTOL = 1e-6
MAX_ITER = 10_000
DEFAULT_EPS0 = 1e-3
DEFAULT_GRID_N = 100  # mckp's grid units per budget
BRUTE_MAX_K = 6
BRUTE_MAX_N = 8
# Relative slack on greedy's dual bound before it may skip a candidate or end
# a round.  The bound and the objective share one quadrature, so only rounding
# and the root tolerance could lift an objective above its bound; measured
# objectives sit at least 1e-10 relative below their bounds.
_BOUND_SLACK = 1e-9
# `_aim` puts a budget split's refinement points this fraction of the budget
# band's width past its nearer edge, and aims only while t' falls by at most
# _AIM_SPREAD across every open bracket: false position interpolates t'
# linearly, and across a steeper bracket (the saturated high-SNR tail, where
# t' falls hundreds of orders of magnitude) its estimate says little.
_AIM_MARGIN = 0.05
_AIM_SPREAD = 1e3
# A curve roots t' = lam to 1e-12 of the smaller of p_tot and this multiple of its
# sensor's unit-SNR power: a strong link's roots sit far below p_tot.  Past the
# multiple z > 31, so a root there is still resolved to 1e-12 relative.
_ROOT_SCALE_SNR = 1e3


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
    """Read-only uniform discretization of the budget: samples[j] = j * p_tot / n, j = 0..n.

    n must be an integer (an integral float is accepted, a bool is not) of
    at least 1.  Each sample is j * p_tot divided by n, so it is correctly
    rounded whenever j * p_tot is exact: equal powers on grids of different
    budgets are equal floats, as is p_tot / i for i dividing n, so a
    kernel's memo serves them all.
    """
    _check_budget(p_tot)
    n = _integer(n, "n")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    samples = np.arange(n + 1) * p_tot / n
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
    _check_budget(p_tot)
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
    if not abs(recomputed - alloc.objective) <= 1e-9 * abs(recomputed):  # NaN fails too
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
    kernels = _kernels(network, network.sensors)
    t_uniform = np.array([kernel.t_checked(p_tot / k) for kernel in kernels])
    order = np.argsort(-t_uniform, kind="stable")
    diagnostics = []
    best = None
    objective_prev = 0.0
    for i in range(1, k + 1):
        chosen = order[:i]
        share = p_tot / i
        objective = network.prior.inverse_trace + sum(kernels[j].t_checked(share) for j in chosen)
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
    """Continuous subproblem output: powers plus solver diagnostics.

    `multiplier`, the budget multiplier, is computed by `_multiplier` on its
    first read and kept: a twin class's closed form defers its one t' call,
    t'(p_tot / m), to that read, so a split whose multiplier nobody reads
    takes no slope at all.  slope_evaluations counts the t' calls the split
    made itself: bracket refinements and the stationarity check, not the
    endpoint slopes its curves were built with, nor a deferred multiplier.
    """

    powers: np.ndarray
    _multiplier: Callable[[], float]
    kkt_residual: float
    iterations: int
    fallback: bool  # always False; the benchmark tracer's power_split.fallbacks reads it
    slope_evaluations: int

    @cached_property
    def multiplier(self) -> float:
        return self._multiplier()


class _Curve:
    """One sensor's t and t' on [0, p_tot] for one budget.

    Evaluates t' at zero power (its P -> 0 limit) and at p_tot once, when
    built, and raises ConcavityViolation when t' rises between them
    (beyond 1e-12 relative) or either is NaN: the one concavity check that
    the split and greedy's bound rest on.  The maximizer of t(P) - lam * P
    is an end of the interval when an endpoint slope says so (`_endpoint`),
    and otherwise the root of t' = lam, found to x_tol (1e-12 of the
    smaller of p_tot and the sensor's power `scale`) by a `_SlopeTable`:
    the budget split keeps one table per member, and `term`, a candidate's
    term of greedy's bound, starts a fresh one.  Only `term` reads `t`.
    """

    def __init__(self, t_prime: Callable[[float], float], p_tot: float,
                 t: Callable[[float], float] | None = None, scale: float = math.inf):
        self.t_prime = t_prime
        self.t = t
        self.p_tot = p_tot
        self.x_tol = 1e-12 * min(p_tot, scale)
        self.at_zero = t_prime(0.0)
        self.at_top = t_prime(p_tot)
        if not self.at_top <= self.at_zero + 1e-12 * abs(self.at_zero) + 1e-300:
            raise ConcavityViolation(f"t' is {self.at_zero!r} at zero power and "
                                     f"{self.at_top!r} at p_tot {p_tot!r}: t is not concave")

    def _endpoint(self, lam: float) -> float | None:
        """The end of [0, p_tot] where t(P) - lam * P peaks, or None if it peaks inside."""
        if self.at_zero - lam <= 0.0:
            return 0.0
        if self.at_top - lam >= 0.0:
            return self.p_tot
        return None

    def term(self, lam: float) -> float:
        """max_P [t(P) - lam * P] over [0, p_tot], for concave t; a fresh slope table
        finds an interior maximizer."""
        table = _SlopeTable(self)
        lo, hi = table.ends(lam)
        while hi - lo > self.x_tol:
            table.refine(lam, table.point(lam))
            lo, hi = table.ends(lam)
        power = 0.5 * (lo + hi)
        # At P = 0 the term is t(0), which is 0: p = 1/2 there, every confusion
        # entry is 1/M and the slope rows telescope.  A computed t(0) is that
        # sum's rounding (up to 3.1e-33 on golden), far inside _BOUND_SLACK, so
        # no kernel pass is taken.
        return self.t(power) - lam * power if power > 0.0 else 0.0


class _SlopeTable:
    """The (P, t'(P)) points evaluated on one curve, sorted by P, starting from its endpoints.

    t' is nonincreasing (the concavity `_Curve` checks), so for a
    multiplier lam strictly between the endpoint slopes the table brackets
    the root of t'(P) = lam, at no cost, by its last point with t' > lam
    and the next one.  `ends` reads that pair by bisection, which yields a
    sign change even where rounding breaks the ordering.  `point` gives
    the false-position point inside the bracket, the table's estimate of
    the root, and `refine` evaluates t' at a point inside the bracket:
    that one, or one the budget split aims elsewhere (`_aim`).  Once the
    same end has stayed put through two steps at one lam, the next point
    halves that end's slope gap (the Illinois rule of Dowell and Jarratt,
    BIT 1971); once it has stayed put through three, points bisect until
    the other end moves.  Without the bisection, brackets where t' falls by
    many orders of magnitude (the saturated high-SNR range) close a few
    bits a step.  `estimate` is the plain false-position point, or the
    maximizer where the bracket has closed: the term the split sums to
    estimate its spend at a multiplier.
    """

    def __init__(self, curve: _Curve):
        self.curve = curve
        self.powers = [0.0, curve.p_tot]
        self.keys = [-curve.at_zero, -curve.at_top]  # -t', nondecreasing in P
        self.evaluations = 0
        self._lam = math.nan
        self._kept = 0  # steps in a row at _lam that kept the low (< 0) or high (> 0) end

    def _bracket(self, lam: float) -> int:
        """Index i with t'(powers[i - 1]) > lam >= t'(powers[i]); lam must be interior."""
        return bisect.bisect_left(self.keys, -lam, 1, len(self.keys) - 1)

    def ends(self, lam: float) -> tuple:
        """(lo, hi) around the maximizer of t(P) - lam * P on [0, p_tot].

        Both are the maximizer when it is an end of the interval or a
        tabled point where t' equals lam.
        """
        end = self.curve._endpoint(lam)
        if end is not None:
            return end, end
        i = self._bracket(lam)
        if self.keys[i] == -lam:
            return self.powers[i], self.powers[i]
        return self.powers[i - 1], self.powers[i]

    def point(self, lam: float) -> float:
        """The safeguarded false-position point inside the open bracket at an interior lam."""
        return self._interpolate(lam, self._kept if lam == self._lam else 0)

    def estimate(self, lam: float) -> float:
        """The maximizer at lam as the table stands: its `ends` if they meet, else the plain
        false-position point between them; no t' call."""
        lo, hi = self.ends(lam)
        return lo if lo == hi else self._interpolate(lam, 0)

    def _interpolate(self, lam: float, kept: int) -> float:
        """The false-position point, its gap halved or bisected after `kept` steps (see point)."""
        i = self._bracket(lam)
        lo, hi = self.powers[i - 1], self.powers[i]
        gap_lo, gap_hi = -self.keys[i - 1] - lam, lam + self.keys[i]  # both > 0
        if kept == -2:
            gap_lo *= 0.5
        elif kept == 2:
            gap_hi *= 0.5
        x = lo + (hi - lo) * (gap_lo / (gap_lo + gap_hi))
        if abs(kept) > 2 or not lo < x < hi:
            x = 0.5 * (lo + hi)
        return x

    def steep(self, lam: float) -> bool:
        """Whether t' falls by more than a factor _AIM_SPREAD across the open bracket at lam."""
        i = self._bracket(lam)
        return -self.keys[i - 1] > _AIM_SPREAD * -self.keys[i]

    def refine(self, lam: float, x: float) -> None:
        """Evaluate t' at x, a point inside the open bracket at an interior lam."""
        if lam != self._lam:
            self._lam, self._kept = lam, 0
        slope = self.curve.t_prime(x)
        self.evaluations += 1
        i = bisect.bisect_left(self.powers, x)
        self.powers.insert(i, x)
        self.keys.insert(i, -slope)
        kept = 1 if slope > lam else -1
        self._kept = self._kept + kept if self._kept * kept > 0 else kept


def _aim(lam: float, points: dict, ends: dict, low_edge: float, high_edge: float) -> dict:
    """Move the refinement points so that, if each lands on its side of its root, the step settles.

    points maps each open table to its `point` at this lam, the estimate of
    its root, and ends maps every table, one per sensor, to its bracket
    (lo, hi).  When the estimates, with the midpoints of closed tables, sum
    above high_edge plus _AIM_MARGIN of the band, each point moves the same
    fraction of the way down to its lo so that the new points, with the
    closed tables' lo, sum to that target: if every point lands below its
    root, the new lo sum settles the step.  A sum below low_edge is handled
    the same way toward each hi.  Otherwise the estimates are returned as
    they are: inside the band, where some open bracket is `steep`, or where
    a point would not move inside its bracket.
    """
    if any(table.steep(lam) for table in points):
        return points
    estimate = sum(points[table] if table in points else 0.5 * sum(ends[table])
                   for table in ends)
    margin = _AIM_MARGIN * (high_edge - low_edge)
    if estimate > high_edge + margin:
        side, target = 0, high_edge + margin  # toward each lo
    elif estimate < low_edge - margin:
        side, target = 1, low_edge - margin  # toward each hi
    else:
        return points
    base = sum(ends[table][side] for table in ends)
    room = sum(points[table] - ends[table][side] for table in ends if table in points)
    share = (target - base) / room
    if not 0.0 < share < 1.0:
        return points
    aimed = {}
    for table, x in points.items():
        end = ends[table][side]
        moved = end + share * (x - end)
        aimed[table] = moved if min(end, x) < moved < max(end, x) else x
    return aimed


def _allocate_power_core(curves: Sequence[_Curve], p_tot: float) -> PowerSolution:
    """The budget split over per-sensor curves, by a safeguarded root search on its multiplier.

    Factored out so tests can exercise the solver on synthetic derivative
    functions; each curve has already checked its concavity.  A set whose
    every entry is one curve (one sensor, or one twin class; see
    _shared_curves) is split in closed form: identical concave curves under
    one budget have equal marginal utility at the equal split (Patriksson,
    EJOR 2008), so each member gets p_tot / m at multiplier t'(p_tot / m),
    with KKT residual 0, no iteration and no t' call: that slope is taken
    only when something reads the multiplier (see PowerSolution), and one
    sensor takes the whole budget at t'(p_tot), the endpoint slope its
    curve already holds.  This holds wherever the search below would
    collapse too, such as a budget past every slope's saturation.

    Otherwise each member gets its own `_SlopeTable` for this split, so each
    step at a multiplier lam reads every sensor's bracket [lo, hi] around its
    maximizer from the points earlier steps evaluated.  When the summed
    brackets, widened by m * x_tol, lie wholly above or below the budget
    band p_tot * (1 +- BUDGET_RTOL), the step takes that side with no new
    evaluation.  Otherwise every open bracket takes one t' evaluation, in
    lockstep, until the sums decide or every bracket is at most x_tol wide;
    then the bracket midpoints are the powers and their sum is tested
    against the band.  The evaluations sit where they settle the step: when
    the brackets' false-position estimates sum beyond an edge of the
    (widened) band, `_aim` moves each point toward its bracket's end so
    that the points sum just past that edge.  If every point lands on its
    side of its root, one evaluation per member decides, and the points stay
    tabled, deciding at no cost every later multiplier whose roots lie
    beyond them.  Decisions still come only from bracket sums, and every
    point a root solve to x_tol could return lies within x_tol of its
    bracket, so the decision is the one such a solve would make, and
    [lam_lo, lam_hi] always brackets the multiplier.

    Each side taken also records the spend the tables estimate at lam, from
    tabled points alone (`_SlopeTable.estimate`, summed over the members),
    less p_tot and clamped to the side's sign; the first estimates, at
    lam = 0 and at the largest zero-power slope (every member at 0), read
    only the endpoint slopes.  The next lam is the regula-falsi root of the
    excesses at the bracket's ends, with the Illinois rule (Dowell and
    Jarratt, BIT 1971): a step that keeps the same end as the step before
    halves that end's excess.  A step that would not land strictly inside
    the bracket, or that follows more than three steps keeping the same
    end, takes the midpoint.  The split stops inside the band and rescales
    the powers to spend p_tot to rounding, so where in the band it stopped
    moves the objective only along its flat top.  The search raises
    NoConvergence as soon as the bracket's midpoint rounds to one of its
    ends, so the tiny multipliers of large budgets (down to about 1e-17 at
    p_tot = 1e3 and 1e-176 at 1e4 on golden) still resolve.  Where every
    positive multiplier spends too little, as when each slope vanishes
    short of the budget (golden greedy at p_tot = 1e5), that is the bracket
    [0, 5e-324], after about 1,075 steps, nearly all midpoints.
    """
    m = len(curves)
    if m == 0:
        raise ValueError("active set must be nonempty")
    curve = curves[0]
    if all(other is curve for other in curves):
        if m == 1:
            return PowerSolution(np.array([p_tot]), lambda: curve.at_top, 0.0, 0, False, 0)
        share = p_tot / m
        return PowerSolution(np.full(m, share), partial(curve.t_prime, share), 0.0, 0, False, 0)

    lam_hi = float(np.max([curve.at_zero for curve in curves]))
    if lam_hi <= 0.0:
        # No sensor gains anything from power; split the budget evenly.
        return PowerSolution(np.full(m, p_tot / m), lambda: 0.0, 0.0, 0, False, 0)
    lam_lo = 0.0
    tables = [_SlopeTable(curve) for curve in curves]
    widen = sum(curve.x_tol for curve in curves)
    slack = BUDGET_RTOL * p_tot
    low_edge, high_edge = p_tot - slack - widen, p_tot + slack + widen

    def excess(lam):
        return sum(table.estimate(lam) for table in tables) - p_tot

    excess_lo, excess_hi = excess(lam_lo), excess(lam_hi)
    kept = 0  # steps in a row that kept the low (< 0) or high (> 0) end of [lam_lo, lam_hi]
    iterations = 0
    while True:
        iterations += 1
        if iterations > MAX_ITER:
            raise NoConvergence(
                f"budget split did not reach {BUDGET_RTOL:g} relative after "
                f"{MAX_ITER} iterations"
            )
        drop = excess_lo - excess_hi
        lam = lam_lo + (lam_hi - lam_lo) * (excess_lo / drop) if drop > 0.0 else math.nan
        if abs(kept) > 3 or not lam_lo < lam < lam_hi:
            lam = 0.5 * (lam_lo + lam_hi)
            if lam == lam_lo or lam == lam_hi:
                raise NoConvergence(
                    f"no positive multiplier spends the budget: the multiplier bracket "
                    f"[{lam_lo!r}, {lam_hi!r}] collapsed before the budget matched"
                )
        side = None  # +1: the powers spend too much, -1: too little, 0: on budget
        while side is None:
            ends = {table: table.ends(lam) for table in tables}
            if sum(lo for lo, _ in ends.values()) - widen - p_tot > slack:
                side = 1
            elif p_tot - sum(hi for _, hi in ends.values()) - widen > slack:
                side = -1
            else:
                points = {table: table.point(lam) for table, (lo, hi) in ends.items()
                          if hi - lo > table.curve.x_tol}
                if points:
                    for table, x in _aim(lam, points, ends, low_edge, high_edge).items():
                        table.refine(lam, x)
                else:
                    powers = np.array([0.5 * (lo + hi) for lo, hi in ends.values()])
                    total = float(np.sum(powers))
                    side = 0 if abs(total - p_tot) <= slack else 1 if total > p_tot else -1
        if side == 0:
            break
        kept = kept + side if kept * side > 0 else side
        if side > 0:
            lam_lo, excess_lo = lam, max(excess(lam), 0.0)
            if kept >= 2:
                excess_hi *= 0.5
        else:
            lam_hi, excess_hi = lam, min(excess(lam), 0.0)
            if kept <= -2:
                excess_lo *= 0.5
    # Stationarity holds for clipped sensors by the clip tests themselves;
    # check the interior coordinates against the final multiplier before the
    # (about 1e-8 relative) rescale to the budget below.
    interior = [(curve, power) for curve, power in zip(curves, powers)
                if curve._endpoint(lam) is None]
    residual = max((abs(curve.t_prime(power) - lam) for curve, power in interior), default=0.0)
    evaluations = len(interior) + sum(table.evaluations for table in tables)
    if residual > KKT_RTOL * max(lam, 1e-300):
        raise NoConvergence(
            f"stationarity residual {residual:.3e} exceeds {KKT_RTOL:g} * multiplier"
        )
    if total != p_tot:
        powers *= p_tot / total
    return PowerSolution(powers, lambda: lam, residual, iterations, False, evaluations)


def _shared_curves(kernels: Sequence[InfoKernel], p_tot: float) -> list:
    """One _Curve per kernel, with twins sharing one kernel and one curve.

    Twins are equal Sensors (Sensor compares by value), so a network's
    kernels (fisher._kernels) give them one kernel object, and their t and
    t' agree at every power: one curve per kernel takes each endpoint slope
    once, and a set of one twin class is one curve repeated, which
    `_allocate_power_core` splits in closed form.  `t` is the unchecked
    `InfoKernel.t`, which only greedy's bound terms read (`t_checked` has
    its bits or raises), so a candidate its bound rules out builds no check
    tables.  A curve's root scale is _ROOT_SCALE_SNR unit-SNR powers.
    """
    curves = {kernel: _Curve(kernel.t_prime, p_tot, kernel.t,
                             _ROOT_SCALE_SNR * _unit_snr_power(kernel.sensor))
              for kernel in dict.fromkeys(kernels)}
    return [curves[kernel] for kernel in kernels]


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
    curves = _shared_curves(_kernels(network, [network.sensors[j] for j in active]), p_tot)
    return _allocate_power_core(curves, p_tot)


def solve_power_allocation(active_set, network: Network, p_tot: float) -> np.ndarray:
    """Optimal budget split over a fixed active set, aligned with active_set.

    Maximizes the summed information of the active sensors subject to the
    powers adding up to the budget.  A safeguarded regula-falsi search on
    the budget multiplier drives each sensor's derivative to the common
    value until the powers spend the budget within BUDGET_RTOL; they are
    then rescaled to spend it to rounding, and the stationarity residual
    of interior sensors stays within KKT_RTOL of the multiplier.  A sensor
    whose zero-power slope is at most the multiplier gets power 0.0.
    """
    return _power_allocation_detailed(active_set, network, p_tot).powers


# ---------------------------------------------------------------------------
# Greedy activation with continuous re-optimization.
# ---------------------------------------------------------------------------

def _dual_bounds(curves: Sequence[_Curve], objective: float, p_tot: float, lam: float,
                 candidates: Sequence[int], exact: bool = False) -> dict:
    """Upper bound on greedy's objective for each candidate j: its tangent key, or if
    `exact`, its Lagrangian bound.

    For any lam >= 0, weak duality bounds every split of the budget over a
    set S by tr(C^-1) + lam * p_tot + sum over i in S of max_P [t_i(P) -
    lam * P] over [0, p_tot].  For S the accepted set A plus j at A's split
    multiplier lam, A's members sit at their maximizers and spend p_tot, so
    all but j's term sum to A's `objective`: the exact bound is
    objective + term_j(lam) (`_Curve.term`), which roots t'_j = lam.  A
    member on a flat stretch of t' short of p_tot, where the clip rule would
    put it at p_tot, differs by rounding, inside _BOUND_SLACK.

    The key, objective + max(t'_j(0) - lam, 0) * p_tot, costs no kernel
    pass.  It is at least the exact bound, since t_j(P) <= t'_j(0) * P for a
    concave t_j with t_j(0) = 0, and equals it, bit for bit, where
    t'_j(0) <= lam: the term peaks at P = 0 there, where it is 0.  In round
    1 (A empty) `objective` is tr(C^-1) and lam is 0: candidate j takes
    its own multiplier t'_j(0), where its term is 0, so the key
    tr(C^-1) + t'_j(0) * p_tot, the tangent at zero power, is its bound.
    """
    if exact:
        return {j: objective + curves[j].term(lam) for j in candidates}
    return {j: objective + max(curves[j].at_zero - lam, 0.0) * p_tot for j in candidates}


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
    so its powers are bit-identical, and the objective, which adds in index
    order, puts its term in the same place, so its objective ties and the
    lower index wins.  A candidate's objective is its kernels' checked t at
    its split, summed by fisher._objective as trace_fim sums them, so it
    has the bits trace_fim would give.  A candidate set of one twin class
    is split in closed form, p_tot / m each, so on a homogeneous network
    greedy that activates every sensor returns ufa's powers and objective.

    Candidates that cannot win are skipped without a solve.  In round 1
    (A empty) candidate j is bounded by UB_j = prior + t'_j(0) * p_tot,
    weak duality at its own zero-power slope (see _dual_bounds), which the
    curves already hold.  After it, with the accepted set A split at
    multiplier lam (the split reports t'(p_tot) for a single sensor), weak
    duality bounds each candidate's objective by the accepted objective
    plus the candidate's own term, UB_j = J_A + max_P [t_j(P) - lam * P]
    (see _dual_bounds), whose maximizer roots t'_j = lam.  A round keys
    its candidates by their zero-power tangents J_A + max(t'_j(0) - lam, 0)
    * p_tot (round 1's are its bounds), which cost no kernel pass, are at
    least UB_j for a concave t_j, and are UB_j itself where t'_j(0) <= lam,
    and holds them in a heap by decreasing key, ties to the lower index.  A
    key at the top of the heap that is not yet UB_j is replaced by UB_j,
    one root, and goes back.  A round
    whose top key, widened by _BOUND_SLACK, improves on the accepted
    objective by at most eps0 relative stops the loop at once; every UB_j
    is at most that key, so the test stops where the largest UB_j would.
    Otherwise exact tops are solved, in order of decreasing UB_j, ties by
    index, until the top widened key falls below the best objective so
    far.  So candidates are solved and skipped as if every UB_j were
    rooted first, and the result is the same as solving every candidate.

    A round with one candidate slot has nothing to rank and nothing to
    skip, so it takes no bound and reads no multiplier: its candidate is
    solved, and the objective test stops the loop wherever the bound test
    would have, since no objective exceeds its bound by more than
    _BOUND_SLACK.  Every round on a homogeneous network is such a round,
    so a twin split's t'(p_tot / m) is never taken there, and each round
    costs one kernel pass, its candidate's t at p_tot / m.  A sensor whose
    t' rises between zero power and p_tot raises ConcavityViolation when
    the curves are built, before any split.
    """
    _check_budget(p_tot)
    if not 0.0 < eps0 < math.inf:
        raise ValueError(f"eps0 must be positive and finite, got {eps0}")
    k = network.k
    kernels = _kernels(network, network.sensors)
    curves = _shared_curves(kernels, p_tot)
    active: list = []
    inactive = list(range(k))
    objective_prev = 1e-12
    accepted = None  # the accepted set's PowerSolution
    diagnostics = []  # (round, objective) per accepted sensor
    while inactive:
        slots: dict = {}
        for j in inactive:  # ascending, so each slot keeps its lowest twin
            slots.setdefault((curves[j], sum(i < j for i in active)), j)
        candidates = list(slots.values())
        if len(candidates) == 1:
            heap = [(-math.inf, candidates[0], True)]  # one slot: nothing to rank or skip
        else:
            base, lam = (objective_prev, accepted.multiplier) if active \
                else (network.prior.inverse_trace, 0.0)
            keys = _dual_bounds(curves, base, p_tot, lam, candidates)
            # (-key, index, whether the key is the exact bound)
            heap = [(-keys[j], j, not active or curves[j].at_zero <= lam) for j in candidates]
            heapq.heapify(heap)
        best_obj = -math.inf
        best_j = None
        best_solution = None
        while heap:
            neg_key, j, exact = heap[0]
            widened = -neg_key * (1.0 + _BOUND_SLACK)
            if widened < best_obj or (best_j is None
                                      and (widened - objective_prev) / objective_prev <= eps0):
                break
            if not exact:
                bound = _dual_bounds(curves, base, p_tot, lam, [j], exact=True)[j]
                heapq.heapreplace(heap, (-bound, j, True))
                continue
            heapq.heappop(heap)
            candidate = active + [j]
            solution = _allocate_power_core([curves[i] for i in candidate], p_tot)
            pairs = sorted(zip(candidate, solution.powers.tolist()))
            objective = _objective(network.prior, (kernels[i].t_checked(p) for i, p in pairs))
            if objective > best_obj or (objective == best_obj and j < best_j):
                best_obj = objective
                best_j = j
                best_solution = solution
        if (best_obj - objective_prev) / objective_prev <= eps0:
            break
        active.append(best_j)
        inactive.remove(best_j)
        accepted = best_solution
        objective_prev = best_obj
        diagnostics.append((len(active), best_obj))
    selection, powers = np.zeros(k), np.zeros(k)
    selection[active] = 1
    if accepted is not None:
        powers[active] = accepted.powers
    return _finish(selection, powers, trace_fim(powers, selection, network),
                   "greedy", len(active), diagnostics)


# ---------------------------------------------------------------------------
# Discretized formulation: one power level per sensor, shared capacity.
# ---------------------------------------------------------------------------

def solve_mckp(value_table, samples: np.ndarray, p_tot: float, *,
               baseline: float = 0.0) -> Allocation:
    """Exact optimum of the discretized problem by dynamic programming.

    value_table[k, j] is sensor k's contribution at samples[j], which must
    be make_power_grid(p_tot, n) to 1e-9 relative, with n + 1 columns; the
    zero-power column, whose entries must be zero, lets the program leave a
    sensor out, which marks it unselected in the result.  Every entry must
    be finite.  Capacity runs over integer grid units, so the program is
    exact on the discretization.  Ties prefer the smaller grid index.  The
    prior's baseline is folded into the stored objective.
    """
    _check_budget(p_tot)
    table = np.asarray(value_table, dtype=float)
    samples = np.asarray(samples, dtype=float)
    if table.ndim != 2:
        raise GridMismatch(f"value table must be 2-D, got shape {table.shape}")
    k, cols = table.shape
    if cols < 2 or samples.shape != (cols,):
        raise GridMismatch(f"value table has {cols} columns and grid shape {samples.shape}: "
                           "each column needs one sample, and there must be at least 2")
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        row, j = bad[0]
        raise GridMismatch(f"value table entry [{row}, {j}] is {table[row, j]}, not finite")
    if np.any(np.abs(table[:, 0]) > 1e-12):
        raise GridMismatch("value table's zero-power column must be zero")
    n = cols - 1
    expected = make_power_grid(p_tot, n)
    off = np.flatnonzero(~(np.abs(samples - expected) <= 1e-9 * max(p_tot, 1.0)))
    if off.size:
        j = int(off[0])
        raise GridMismatch(f"grid sample {j} is {float(samples[j])!r}, "
                           f"not {float(expected[j])!r} = {j} * {p_tot!r} / {n}")

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


def _row_certified(value: Callable[[int], float], prefix: list, level: int, n: int,
                   lam: float, bound: Callable[[int], float | None]) -> bool:
    """Whether a row's T_j - lam * j peaks at j = level over the whole grid 0..n.

    `prefix` holds T_0 .. T_min(level + 1, n), where T_(level + 1) may be
    an upper bound in place of the entry: every test below only gets
    harder as that value grows, so a row certified from a bound is
    certified.  On the prefix the increments must not increase and must
    bracket lam (the one reaching `level` at least lam, the next at most
    lam); these compare the very floats the heap ordered, so no tolerance
    enters.  Past the prefix every j must have T_j - T_level <= lam *
    (j - level), and the row is read through value(j), bounded by
    monotonicity: T_b alone clears every j in (m, b] once T_b - T_level <=
    lam * (m + 1 - level).  The chain
    starts at the last column, clears down to the smallest such m and
    goes on at m; when no m < b qualifies, j = b itself fails.  At each b
    the chain first asks bound(b) for a value at least T_b (or None): one
    that clears b itself clears (m, b] as T_b would, with the same
    smallest-m rule, and only otherwise is T_b read.  So the verdict is
    the predicate over the whole row whatever the bounds, and with no
    bound the reads are the chain's alone.
    """
    steps = [b - a for a, b in zip(prefix, prefix[1:])]
    if not (all(s >= t for s, t in zip(steps, steps[1:]))
            and (level == 0 or steps[level - 1] >= lam)
            and (level == n or lam >= steps[level])):
        return False
    top, a, b = prefix[level], level + 1, n
    while b > a:
        upper = bound(b)
        if upper is not None and upper - top <= lam * (b - level):
            rise = upper - top
        else:
            rise = value(b) - top
        if rise <= lam * (a + 1 - level):
            return True
        if not rise <= lam * (b - level):
            return False
        # The bound clears (m, b] from m = level - 1 + rise / lam up.  The
        # quotient, clamped to the interval before math.ceil sees it, lands
        # within a step of the smallest such m, and the bound's own float
        # comparison settles m, so no rounding enters the verdict.
        m = min(max(level - 1 + math.ceil(min(rise / lam, b - level)), a + 1), b - 1)
        while m > a + 1 and rise <= lam * (m - level):
            m -= 1
        while not rise <= lam * (m + 1 - level):
            m += 1
        b = m
    return True


def _mckp_marginal(value: Callable[[int, int], float], k: int, samples: np.ndarray,
                   p_tot: float, baseline: float,
                   tabulate: Callable[[], np.ndarray],
                   bound: Callable[[int, int], float | None]) -> Allocation:
    """solve_mckp's optimum, reading the table entry by entry through value(row, j).

    Marginal analysis hands out the n grid units one at a time, each to the
    row with the largest next increment T[row, L + 1] - T[row, L], ties to
    the lower row, and stops early at a nonpositive increment.  With lam the
    last accepted increment (0 after an early stop), the levels L are
    optimal when every row's T[row, j] - lam * j peaks at its level
    (Lagrangian sufficiency), which `_row_certified` checks, taking
    bound(row, j), a value at least T[row, j] or None, in place of an
    entry it would clear.  If any row fails, the full table from
    `tabulate` goes to solve_mckp.  The objective adds the picked entries
    in row order, as solve_mckp does.

    The heap is lazy (Minoux 1978): where bound(row, L + 1) has a value,
    row's entry holds the increment up to it, at least the exact one, and
    T[row, L + 1] is read only when that entry reaches the top.  The exact
    entry then goes back into the heap, unless it equals the bounded one
    (a memo hit at the grid power itself), which stays on top as it is.
    Only exact entries take units.  Entries order by (key, row), so every
    unit, tie, early stop and lam is the eager heap's, from a subset of
    its reads.  A row left holding a bound is certified with the bound in
    its T[L + 1] slot, and again with the entry read if that fails.
    """
    n = samples.size - 1
    levels = [0] * k
    prefixes = [[value(row, 0)] for row in range(k)]
    uppers = [None] * k  # bound(row, L + 1) while T[row, L + 1] is unread

    def read(row):
        prefix = prefixes[row]
        prefix.append(value(row, levels[row] + 1))
        uppers[row] = None
        return prefix[-2] - prefix[-1], row

    def entry(row):
        uppers[row] = bound(row, levels[row] + 1)
        return read(row) if uppers[row] is None else (prefixes[row][-1] - uppers[row], row)

    def certified(row, prefix):
        return _row_certified(lambda j: value(row, j), prefix, levels[row], n, lam,
                              lambda j: bound(row, j))

    heap = [entry(row) for row in range(k)]
    heapq.heapify(heap)
    lam = 0.0
    units = 0
    while units < n:
        negated, row = heap[0]
        if not negated < 0.0:
            lam = 0.0
            break
        if uppers[row] is not None:
            exact = read(row)
            if exact != heap[0]:
                heapq.heapreplace(heap, exact)
                continue
        lam = -negated
        units += 1
        levels[row] += 1
        if levels[row] == n:
            break
        heapq.heapreplace(heap, entry(row))
    for row in range(k):
        if uppers[row] is not None:
            if certified(row, prefixes[row] + [uppers[row]]):
                continue
            read(row)
        if not certified(row, prefixes[row]):
            return solve_mckp(tabulate(), samples, p_tot, baseline=baseline)
    total = 0.0
    for row in range(k):
        total += prefixes[row][levels[row]]
    objective = baseline + total
    picks = np.array(levels)
    return _finish(picks > 0, samples[picks], objective, "mckp", k, ((k, objective),))


def solve_mckp_network(network: Network, p_tot: float, n: int = DEFAULT_GRID_N) -> Allocation:
    """solve_mckp's optimum on a fresh grid, reading t only where marginal analysis needs it.

    Each entry is the sensor's network kernel's `t_checked` at the grid
    power (taken from samples as Python floats), the value tabulate_t would
    store; `_mckp_marginal` reads a row at most one grid point past the
    level it assigns, plus the few entries its certificate needs.  t is
    nondecreasing in P (a noisier binary symmetric channel is a garbling of
    a cleaner one, and Fisher information obeys data processing), which the
    certificate's tail bound uses, and so does the bound on an entry that
    the heap and the certificate take: the kernel's memoized t at the
    smallest power at or above the entry's (`InfoKernel.t_bound`).  With an
    empty memo there is none; after a larger budget of a sweep (which
    `sweep` solves first) there is often one, and far fewer entries are
    computed.  Either way the allocation is the same bits.  A
    budget the certificate cannot clear falls back to tabulate_t and
    solve_mckp.
    """
    samples = make_power_grid(p_tot, n)
    powers = samples.tolist()
    kernels = _kernels(network, network.sensors)
    return _mckp_marginal(lambda row, j: kernels[row].t_checked(powers[j]),
                          network.k, samples, p_tot, network.prior.inverse_trace,
                          lambda: tabulate_t(network, samples),
                          lambda row, j: kernels[row].t_bound(powers[j]))


def enumerate_mckp_table(value_table: np.ndarray) -> tuple:
    """Exhaustive search of the discretized problem on a (k, n + 1) value table.

    Every assignment of one column per row whose columns sum to at most n
    is tried.  Returns (picks, total, feasible): the best assignment's
    column per row (the lexicographically smallest among ties), its total,
    the picked entries added from 0.0 in row order, and how many
    assignments fit.
    """
    k, n1 = value_table.shape
    value = np.zeros((n1,) * k)
    units = np.zeros((n1,) * k, dtype=int)
    for row in range(k):
        shape = [1] * k
        shape[row] = n1
        j_axis = np.arange(n1).reshape(shape)
        value = value + value_table[row, j_axis]
        units = units + j_axis
    feasible = units < n1
    value = np.where(feasible, value, -np.inf)
    flat = int(np.argmax(value))  # C order: lexicographically smallest tie wins
    picks = np.array(np.unravel_index(flat, value.shape))
    return picks, float(value.flat[flat]), int(np.sum(feasible))


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
    picks, total, feasible = enumerate_mckp_table(tabulate_t(network, samples))
    return _finish(picks > 0, samples[picks], network.prior.inverse_trace + total, "brute",
                   feasible, ())


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


def sweep(network: Network, budgets: Sequence[float], algorithms: Sequence[str],
          grid_n: int = DEFAULT_GRID_N, eps0: float = DEFAULT_EPS0) -> list:
    """(p_tot, algorithm, result, seconds) per budget and algorithm, sorted by budget, then
    algorithm: result is SOLVERS[algorithm]'s Allocation (looked up at call time) or the
    FimallocError it raised, and seconds times that call alone.  Budgets are solved largest
    first, so mckp's certificates at the smaller ones find bounds among the t values the
    larger ones memoized in the network's kernels; each result is a lone solve's, bit for
    bit."""
    cells = []
    for p_tot in sorted(map(float, budgets), reverse=True):
        for name in algorithms:
            start = time.perf_counter()
            try:
                result = SOLVERS[name](network, p_tot, grid_n, eps0)
            except FimallocError as exc:
                result = exc
            cells.append((p_tot, name, result, time.perf_counter() - start))
    return sorted(cells, key=lambda cell: cell[:2])
