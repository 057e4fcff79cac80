"""Per-sensor information contribution and the information-trace objective.

Each selected sensor adds a nonnegative amount t_k(P_k) to the trace of the
Bayesian information matrix, on top of the prior's baseline tr(C^-1).  The
per-sensor term is an expectation over the scalar projection s = gain' theta
of a kernel G built from the quantizer cell probabilities and the channel
confusion matrix.  Because the kernel depends on theta only through s, the
q-dimensional expectation collapses to a one-dimensional Gaussian integral.

The kernel is even in s: the quantizer boundaries are symmetric about
zero, so the cells at -s are those at s in reverse order, and the
confusion entries depend only on the Hamming distance between codewords,
which complementing both codewords (reversing the level order) keeps.
Each received level at -s thus has the probability and squared slope of
its mirror level at s, and the zero-mean Gaussian expectation over the
whole line is exactly twice the integral over s >= 0 against the same
density.  Every rule below integrates over [0, 8.5 sigma_s] only, with the
density weights doubled.

The integrand concentrates in bumps of width sigma_n around the quantizer
decision boundaries while the Gaussian density has width sigma_s, and the
two scales separate badly for strong gains, so a plain Hermite rule stalls.
The integral is therefore evaluated over panels refined around the
boundaries, with one rule on every panel: QUADPACK's 21-point
Gauss-Kronrod rule (Piessens et al., 1983), held as the fixed table
`_GK21`.  A value is the 10-point Gauss sum; a guarded value is checked
against the Kronrod extension of the same panels, which reuses the kernel
values at the Gauss nodes and adds 11 nodes per panel.  An InfoKernel lays
out the Gauss rule's nodes and table when it is built, and the Kronrod-only
nodes' table the first time a checked value needs it, so a kernel that
only ever gives t' and unchecked t (most of greedy's, whose bounds rule
their sensors out) never builds the check's tables.  A checked value is
one kernel pass over both rules' nodes at once.  The check is local: each
of the m panels may contribute 1/m of the tolerance.  What becomes of a
value it flags is stated once, in `InfoKernel.t_checked`, whose guard
`t_k`, `tabulate_t` and the solvers share.

Each kernel value is a sum over received levels of num^2 / den, where den
mixes the cell probabilities by the confusion entries, and a term whose
den falls below _DEN_FLOOR is skipped.  Whether any den can fall below
it is decided once per call, not per node: every den is a convex mix of
confusion entries, since the cell probabilities sum to one, so it is at
least the smallest entry, p**L for p <= 1/2 (measured: min(den) / p**L
>= 1 - 2.2e-16 over golden and fuzzed networks, at both rules' nodes).
When that entry clears twice the floor, no term can be skipped, and a
plain divide gives exactly what the masked one would; otherwise the
masked divide runs.  Either way the values are the same bits.

A Network owns its kernels: `_kernels(network, sensors)` is the one way
the library gets a sensor's kernel, built on the network's first request
and kept in the network for as long as it lives.  Twins (equal sensors)
share one InfoKernel, its tables, its confirmation kernel and its memo of
checked t values.  Nothing else holds a sensor's tables, so unrelated
networks share nothing, and a network's kernels are freed with it.
`t_checked` is deterministic for a given kernel and power, so a budget
sweep over one network, whose grids repeat many powers, computes each
power once, and `t_bound` gives mckp's certificate the memoized value at
the nearest power at or above one it would otherwise compute.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, QuadratureNotConverged
from .model import Network, Prior, Sensor, _sensor_form
from .quantcomm import (
    _alpha_entries,
    _alpha_slope,
    _bit_error_slope,
    _cell_tables,
    bit_error_prob,
    make_quantizer,
)

# Read only by perfbench's tracer, on every kernel build, for an escalation
# count that no kernel now triggers; kept until that count is retired.
DEFAULT_NODES = 81
_QUAD_RTOL = 1e-6
_DEN_FLOOR = 1e-300
# Estimates below this are numerically zero (the true scale of nonzero t
# values is many orders larger); skip the relative convergence test there.
_ZERO_SCALE = 1e-20
# Entries a kernel's memo of checked t values holds before it starts over:
# far above the ~100 distinct powers a solve or budget sweep checks, it
# bounds the memo of a kernel that a long-lived network keeps.
_CHECKED_CAP = 4096


def _read_only(values) -> np.ndarray:
    array = np.array(values)
    array.setflags(write=False)
    return array


# QUADPACK's 21-point Gauss-Kronrod rule (Piessens et al., 1983), the rule on
# every panel of every kernel, as read-only arrays (x, w, wx, y, wy) on
# [-1, 1]: the 10 Gauss nodes and weights, the Kronrod weights at the Gauss
# nodes, and the 11 Kronrod-only nodes and their weights, nodes ascending.
# The 21-point rule is exact to degree 31.
_GK21 = tuple(map(_read_only, (
    (-0.9739065285171717, -0.8650633666889845, -0.6794095682990244, -0.4333953941292472,
     -0.14887433898163122, 0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
     0.8650633666889845, 0.9739065285171717),
    (0.06667134430868803, 0.14945134915058053, 0.21908636251598207, 0.2692667193099962,
     0.2955242247147529, 0.2955242247147529, 0.2692667193099962, 0.21908636251598207,
     0.14945134915058053, 0.06667134430868803),
    (0.03255816230796463, 0.07503967481092, 0.10938715880229767, 0.1347092173114734,
     0.14773910490133846, 0.14773910490133846, 0.1347092173114734, 0.10938715880229767,
     0.07503967481092, 0.03255816230796463),
    (-0.9956571630258082, -0.9301574913557084, -0.7808177265864169, -0.5627571346686047,
     -0.29439286270146, 0.0, 0.29439286270146, 0.5627571346686047, 0.7808177265864169,
     0.9301574913557084, 0.9956571630258082),
    (0.011694638867371638, 0.054755896574351905, 0.09312545458369761, 0.12349197626206586,
     0.14277593857706006, 0.149445554002917, 0.14277593857706006, 0.12349197626206586,
     0.09312545458369761, 0.054755896574351905, 0.011694638867371638),
)))

# The Gauss weights, and the Kronrod weights at the Gauss nodes, which the
# check alone reads, stacked: a kernel build takes one density evaluation for both.
_GAUSS_NODE_WEIGHTS = _read_only(_GK21[1:3])


# Panel layout constants: extent of the density support kept, boundary
# refinement offsets in units of sigma_n, and panel width caps in units of
# the feature scale (in the refined zone) and the density scale (outside).
_DENSITY_SPAN = 8.5
_REFINE_OFFSETS = (1.5, 4.0, 12.0)
_ZONE_CAP_FEATURE = 6.0
_CAP_DENSITY = 2.5


def _panel_edges(boundaries: np.ndarray, sigma_n: float, sigma_s: float,
                 split: int = 1) -> np.ndarray:
    """Panel edges covering [0, 8.5 sigma_s], refined at the boundaries.

    The first edge is exactly 0 and the last 8.5 sigma_s (to rounding).  The
    refinement points are the interior boundaries and their offsets that
    fall inside, from both sides of zero, so the panels are the s >= 0 half
    of the layout that the same rules make over the whole line.  With
    `split`, each of those panels is cut into `split` equal ones.  Python
    floats: a sensor has a few dozen edges.
    """
    lim = _DENSITY_SPAN * sigma_s
    interior = boundaries[1:-1].tolist()
    shifts = [0.0] + [sign * c * sigma_n for sign in (1.0, -1.0) for c in _REFINE_OFFSETS]
    points = sorted([0.0, lim] + [e for b in interior for d in shifts if 0.0 < (e := b + d) < lim])
    # Drop repeated and near-duplicate edges so panel widths stay well
    # conditioned; the first edge, 0, is always kept.
    tol = 1e-9 * max(lim, sigma_n)
    edges = [0.0] + [right for left, right in zip(points, points[1:]) if right - left > tol]
    if edges[-1] != lim:
        edges.append(lim)
    zone_lo = interior[0] - _REFINE_OFFSETS[-1] * sigma_n if interior else math.inf
    zone_hi = interior[-1] + _REFINE_OFFSETS[-1] * sigma_n if interior else -math.inf
    zone_cap = min(_ZONE_CAP_FEATURE * sigma_n, _CAP_DENSITY * sigma_s)
    # Split each gap into equal pieces no wider than its cap (at least one,
    # as right > left), each cut in `split`; piece i of gap [left, right]
    # ends at left + i * step.
    refined = [0.0]
    for left, right in zip(edges, edges[1:]):
        cap = zone_cap if right > zone_lo and left < zone_hi else _CAP_DENSITY * sigma_s
        pieces = split * math.ceil((right - left) / cap)
        step = (right - left) / pieces
        refined += [left + i * step for i in range(1, pieces + 1)] if pieces > 1 else [left + step]
    return np.array(refined)


def _panel_nodes(x: np.ndarray, w: np.ndarray, centers: np.ndarray, halves: np.ndarray,
                 sigma_s: float):
    """Nodes s of rule x on every panel, and weights w folding in the density.

    w is one weight vector for the nodes x, or a stack of them, one per
    row; the density is evaluated once for them all, and the weights come
    back in the same shape, each row spanning every panel.  The density is
    doubled (the half-normal one), since the panels cover s >= 0 only and
    the kernel is even in s.
    """
    s = (centers[:, None] + halves[:, None] * x[None, :]).ravel()
    density = np.exp(-0.5 * (s / sigma_s) ** 2) / (0.5 * sigma_s * math.sqrt(2.0 * math.pi))
    weights = (halves[:, None] * w[..., None, :]).reshape(*w.shape[:-1], -1) * density
    weights.setflags(write=False)
    return s, weights


@lru_cache(maxsize=16)
def _ones(m: int) -> np.ndarray:
    """A read-only vector of m ones: a product with it sums each row of an (n, m) array."""
    ones = np.ones(m)
    ones.setflags(write=False)
    return ones


def _kernel_values(cells: np.ndarray, alpha: np.ndarray,
                   alpha_slope: np.ndarray | None = None) -> np.ndarray:
    """The information kernel, or its p-slope, at each node of a (2n, M) `_cell_tables` table.

    At each node, sums over received levels the squared confusion-weighted
    slope over the confusion-weighted cell probability.  The probabilities
    and slopes are stacked, so one product per confusion matrix mixes both.
    alpha (and alpha_slope) come from `_alpha_entries` (and `_alpha_slope`):
    they are symmetric, so the product takes them as they are, not
    transposed, and alpha's smallest entry is alpha[0, 0] or alpha[0, -1].
    Terms whose denominator falls below _DEN_FLOOR are skipped; they vanish
    faster in the numerator than the denominator, so dropping them is
    conservative.  Whether any can fall below it is decided once per call,
    from that smallest entry (see the module docstring).  Given
    alpha_slope = d(alpha)/dp, returns the kernel's p-derivative instead.
    """
    n = cells.shape[0] // 2
    mixed = cells @ alpha
    den, num = mixed[:n], mixed[n:]
    top = num * num if alpha_slope is None else num
    if min(alpha[0, 0], alpha[0, -1]) >= 2.0 * _DEN_FLOOR:
        ratio = np.divide(top, den, out=top)
    else:
        ratio = np.divide(top, den, out=np.zeros_like(den), where=den >= _DEN_FLOOR)
    if alpha_slope is not None:
        # d/dp (num^2 / den) in ratio form r (2 num_d - r den_d), r = num / den:
        # no den^2, which underflows long before den falls below the floor.
        mixed_d = cells @ alpha_slope
        ratio = ratio * (2.0 * mixed_d[n:] - ratio * mixed_d[:n])
    # A product with ones sums the rows at a fraction of np.sum(axis=1)'s
    # per-row cost on M columns; its order moves a sum by at most an ulp.
    return ratio @ _ones(ratio.shape[1])


def _kernel_sum(weights: np.ndarray, cells: np.ndarray,
                alpha: np.ndarray, alpha_slope: np.ndarray | None = None) -> float:
    """Weighted sum over the nodes of the information kernel, or of its p-slope."""
    return float(weights @ _kernel_values(cells, alpha, alpha_slope))


class InfoKernel:
    """Per-sensor evaluator of t(P) and dt/dP on a fixed panel layout.

    The layout is `_panel_edges`' with each panel cut into `split` equal
    ones, and every panel takes the `_GK21` rule.  Builds the quadrature
    tables once and reuses them for every power, so tabulating a power grid
    or iterating inside a solver costs one confusion matrix per power
    instead of a fresh quadrature setup.  `t` and `t_prime` perform no
    convergence check.  `t_checked` is `t` under the quadrature guard
    (whose Kronrod tables `_check_tables` builds on the first checked
    value), and memoizes each value it returns, keyed by power.
    `t_prime` takes p and dp/dP from quantcomm, which owns the link.  The
    library keeps one split-1 kernel per distinct sensor of a network in
    the network (`_kernels`); a kernel built directly starts with an empty
    memo and builds its own tables.

    The tables, all read-only and None at zero gain: `_weights` and `_cells`
    are the Gauss rule's n weights and the (2n, M) `_cell_tables` table at
    its nodes, where cells[i, l] and cells[n + i, l] are the cell
    probability and its scaled slope at node s_i.  The nodes cover s >= 0
    only, and the weights fold in twice the Gaussian density and the panel
    half-widths, so a weighted sum of kernel values approximates the
    expectation over the whole line: the kernel is even in s (see the
    module docstring), so the half-line rule is exact and does half the
    work of a whole-line one.  The check's tables are None until
    `_check_tables` builds them.  `_check_cells` is the unsplit table of
    both rules on the same panels, laid out as [probabilities at the n
    Gauss nodes; at the Kronrod-only nodes; slopes at the Gauss nodes; at
    the Kronrod-only nodes], so one kernel pass over it gives g at the Gauss
    nodes in its first n values and at the Kronrod-only nodes after them.
    `_gap_weights[i, 0]` holds the Gauss weights less the Kronrod weights at
    panel i's Gauss nodes and `_kronrod_weights[i, 0]` the Kronrod weights
    at its Kronrod-only nodes, so each panel's Gauss sum less its Kronrod
    sum is one matrix product per rule for all panels.
    """

    def __init__(self, sensor: Sensor, prior: Prior, split: int = 1):
        self.sigma_s = sigma_s = math.sqrt(max(_sensor_form(sensor, prior, "sensor"), 0.0))
        self.sensor = sensor
        self.prior = prior
        self.split = split
        self._finer: InfoKernel | None = None
        self._checked: dict = {}
        self._powers: list = []  # the memo's powers, ascending
        self.prefactor = float(sensor.gain @ sensor.gain) / (2.0 * math.pi * sensor.sigma_n ** 2)
        self._check_cells = self._gap_weights = self._kronrod_weights = None
        if sigma_s == 0.0:
            self._weights = self._cells = None
            return
        quantizer = make_quantizer(sensor.bits, sensor.tau)
        edges = _panel_edges(quantizer.boundaries, sensor.sigma_n, sigma_s, split)
        centers, halves = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
        s, (self._weights, kronrod_at_gauss) = _panel_nodes(_GK21[0], _GAUSS_NODE_WEIGHTS,
                                                            centers, halves, sigma_s)
        self._cells = _cell_tables(s, quantizer, sensor.sigma_n)
        self._cells.setflags(write=False)
        self._check_inputs = (quantizer, centers, halves, kronrod_at_gauss)

    def _check_tables(self):
        """The check's table and weights (`_check_cells`, `_gap_weights`, `_kronrod_weights`).

        Built on first use and kept: only the Kronrod-only nodes are new,
        and `_cell_tables` is elementwise in s, so their table, spliced into
        the Gauss one, is the same bits as one table over both rules' nodes.
        """
        if self._check_cells is None:
            y, wy = _GK21[3:]
            quantizer, centers, halves, kronrod_at_gauss = self._check_inputs
            s, kronrod = _panel_nodes(y, wy, centers, halves, self.sigma_s)
            extra = _cell_tables(s, quantizer, self.sensor.sigma_n)
            n, panels = self._weights.size, centers.size
            self._check_cells = np.concatenate((self._cells[:n], extra[:s.size],
                                                self._cells[n:], extra[s.size:]))
            self._gap_weights = (self._weights - kronrod_at_gauss).reshape(panels, 1, -1)
            self._kronrod_weights = kronrod.reshape(panels, 1, -1)
            for table in (self._check_cells, self._gap_weights):
                table.setflags(write=False)
        return self._check_cells, self._gap_weights, self._kronrod_weights

    def expected_g(self, p_bit: float, with_check: bool = False):
        """Gaussian expectation of the information kernel at bit-error rate p_bit.

        With `with_check`, returns the pair (expectation, error).  error is
        m times the largest gap, over the m panels, between a panel's Gauss
        sum and its Gauss-Kronrod sum, which reuses the kernel values at the
        Gauss nodes and adds those at the Kronrod-only nodes; one kernel pass
        over `_check_cells` gives both, and the expectation is the same bits
        as the Gauss table's (each node's row is mixed and summed alone,
        whichever table holds it).  It is at least
        the sum of the panels' absolute gaps, so never below the whole
        rule's gap.  The check rides on this method, not a separate one, so
        that the tracer in perfbench/, which wraps expected_g by name,
        counts one call per checked value.
        """
        if self._weights is None:
            return (0.0, 0.0) if with_check else 0.0
        alpha = _alpha_entries(self.sensor.bits, p_bit)
        if not with_check:
            return float(self._weights @ _kernel_values(self._cells, alpha))
        cells, gap_weights, kronrod_weights = self._check_tables()
        g = _kernel_values(cells, alpha)
        n, panels = self._weights.size, gap_weights.shape[0]
        gaps = gap_weights @ g[:n].reshape(panels, -1, 1) \
            - kronrod_weights @ g[n:].reshape(panels, -1, 1)
        return float(self._weights @ g[:n]), panels * float(np.abs(gaps).max())

    def expected_g_slope(self, p_bit: float) -> float:
        """d/dp of expected_g, by differentiating the confusion entries."""
        if self._weights is None:
            return 0.0
        bits = self.sensor.bits
        return _kernel_sum(self._weights, self._cells,
                           _alpha_entries(bits, p_bit), _alpha_slope(bits, p_bit))

    def t(self, power: float) -> float:
        """Information contribution at the given transmit power (0.0 at zero gain)."""
        return self.prefactor * self.expected_g(bit_error_prob(power, self.sensor))

    def t_checked(self, power: float) -> float:
        """t at `power` under the quadrature guard, the one statement of its policy.

        Returns t itself when the Kronrod error estimate is within
        _QUAD_RTOL relative of it.  A value that check flags is returned
        as it is when a kernel that cuts every panel in 2 (times this
        kernel's split) moves it by no more than _QUAD_RTOL relative, the
        same test with that move as the error; otherwise
        QuadratureNotConverged is raised.  The split-2 kernel is built the
        first time a value is flagged and kept for later powers.  Flags
        are rare, and split 2 confirmed every one in the README's audit.  A
        returned value is memoized by power (-0.0 and 0.0 share an entry,
        as they share p); a power that raises is never stored, so it raises
        on every call.
        The memo is emptied before it would grow past _CHECKED_CAP entries,
        which bounds the memory of a kernel a long-lived network keeps.  Its
        powers are also kept in ascending order, emptied with it, for `t_bound`.
        """
        value = self._checked.get(power)
        if value is None:
            value = self._guarded(power)
            if len(self._checked) >= _CHECKED_CAP:
                self._checked.clear()
                self._powers.clear()
            self._checked[power] = value
            bisect.insort(self._powers, power)
        return value

    def t_bound(self, power: float) -> float | None:
        """The memoized t_checked at the smallest memoized power >= power, or None.

        Computed t is nondecreasing in P (see solvers.solve_mckp_network), so
        the value bounds t_checked(power) from above without computing it;
        None when no memoized power is that large.
        """
        i = bisect.bisect_left(self._powers, power)
        return self._checked[self._powers[i]] if i < len(self._powers) else None

    def _guarded(self, power: float) -> float:
        """t_checked without the memo."""
        p = bit_error_prob(power, self.sensor)
        gauss, error = self.expected_g(p, with_check=True)
        value = self.prefactor * gauss
        if _within_tolerance(value, self.prefactor * error):
            return value
        if self._finer is None:
            self._finer = InfoKernel(self.sensor, self.prior, 2 * self.split)
        if _within_tolerance(value, abs(self.prefactor * self._finer.expected_g(p) - value)):
            return value
        raise QuadratureNotConverged(
            f"t at power {power} still moved by more than {_QUAD_RTOL:g} relative "
            f"after splitting every panel in {2 * self.split}"
        )

    def t_prime(self, power: float) -> float:
        """dt/dP; where p is 1/2 (at P = 0, or too close to move p), its P -> 0 limit
        M (h_mag / sigma_nu)^2 / (2 pi L) E[|S @ alpha'(1/2)|^2]: to first order there, every
        den is 1/M, num = (p - 1/2) S @ alpha'(1/2) (the slope rows S telescope) and
        1/2 - p = z / sqrt(2 pi)."""
        p = bit_error_prob(power, self.sensor)  # a negative or NaN power raises, even at zero gain
        if self._weights is None:
            return 0.0
        if p != 0.5:
            return self.prefactor * self.expected_g_slope(p) * _bit_error_slope(power, self.sensor)
        bits, m = self.sensor.bits, self.sensor.levels_count
        num = self._cells[self._weights.size:] @ _alpha_slope(bits, 0.5)
        return (self.prefactor * m / (2.0 * math.pi * bits)
                * (self.sensor.h_mag / self.sensor.sigma_nu) ** 2
                * float(self._weights @ ((num * num) @ _ones(m))))


def _within_tolerance(value: float, error: float) -> bool:
    """Whether an error estimate for value is within _QUAD_RTOL relative of it.

    Passes without the relative test only where value and error together
    are numerically zero.
    """
    if abs(value) + error < _ZERO_SCALE:
        return True
    return error <= _QUAD_RTOL * abs(value)


def _kernels(network: Network, sensors) -> list:
    """The network's InfoKernel of each of sensors, on the unsplit layout.

    Each is built the first time the network is asked for it and kept in
    the network, keyed by value (Sensor compares by value), so twins get
    one kernel object, with its tables, its confirmation kernel (see
    `InfoKernel.t_checked`) and its memo of checked t values.  Only the
    kernels asked for are built.
    """
    owned = network._kernels
    for sensor in sensors:
        if sensor not in owned:
            owned[sensor] = InfoKernel(sensor, network.prior)
    return [owned[sensor] for sensor in sensors]


def t_k(power: float, sensor: Sensor, prior: Prior) -> float:
    """Per-sensor information contribution t(P), with a quadrature guard.

    `InfoKernel.t_checked` of a kernel built for this call: the Gaussian
    expectation on the unsplit panels, under the guard it states.  Each
    call builds the kernel's tables afresh, so for many powers of one
    sensor use `tabulate_t`, or keep an InfoKernel, whose memo serves a
    repeated power.  Nonnegative, and exactly zero at P = 0 up to roundoff.
    """
    return InfoKernel(sensor, prior).t_checked(power)


def t_k_derivative(power: float, sensor: Sensor, prior: Prior) -> float:
    """dt/dP via the chain rule through the bit-error rate.

    `InfoKernel.t_prime` of a kernel built for this call (for many powers
    of one sensor, keep an InfoKernel): the confusion entries are
    differentiated analytically in p and the same quadrature integrates
    the result; the bit-error slope supplies dp/dP.  At P = 0 it is the
    P -> 0 limit (see `InfoKernel.t_prime`); a negative or NaN power
    raises ValueError, as t_k does.
    """
    return InfoKernel(sensor, prior).t_prime(power)


def trace_fim(powers, selection, network: Network) -> float:
    """Objective value: prior baseline plus the selected sensors' contributions.

    Each is its network kernel's `t_checked` (the value t_k gives), and
    unselected sensors contribute nothing regardless of their power entry;
    only the selected sensors' kernels are built.
    """
    powers = np.asarray(powers, dtype=float)
    selection = np.asarray(selection)
    k = network.k
    if powers.shape != (k,) or selection.shape != (k,):
        raise DimensionMismatch(
            f"powers {powers.shape} and selection {selection.shape} must both be length {k}"
        )
    if np.any(powers < 0.0):
        raise ValueError("powers must be nonnegative")
    chosen = np.flatnonzero(selection)
    kernels = _kernels(network, [network.sensors[i] for i in chosen])
    return _objective(network.prior, map(InfoKernel.t_checked, kernels, powers[chosen].tolist()))


def _objective(prior: Prior, terms) -> float:
    """tr(C^-1) plus the terms in the order given: trace_fim's and greedy's one sum,
    so the same t values in index order give the same bits."""
    total = prior.inverse_trace
    for term in terms:
        total += term
    return total


def tabulate_t(network: Network, power_grid) -> np.ndarray:
    """Table of t values: entry (k, j) is sensor k's contribution at grid[j].

    Each entry equals t_k at that power: a row reads its sensor's network
    kernel (`_kernels`), so twins share one kernel, its tables and
    confirmation kernel are built once per network, and a power that an
    earlier table or solve on the network already checked is read from the
    kernel's memo.
    """
    grid = np.asarray(power_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("power grid must be a non-empty vector")
    if np.any(np.diff(grid) < 0.0) or grid[0] < 0.0:
        raise ValueError("power grid must be ascending and nonnegative")
    table = np.zeros((network.k, grid.size))
    for row, kernel in enumerate(_kernels(network, network.sensors)):
        for j, power in enumerate(grid):
            table[row, j] = kernel.t_checked(float(power))
    return table
