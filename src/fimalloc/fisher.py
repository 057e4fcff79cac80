"""Per-sensor information contribution and the information-trace objective.

Each selected sensor adds a nonnegative amount t_k(P_k) to the trace of the
Bayesian information matrix, on top of the prior's baseline tr(C^-1).  The
per-sensor term is an expectation over the scalar projection s = gain' theta
of a kernel G built from the quantizer cell probabilities and the channel
confusion matrix.  Because the kernel depends on theta only through s, the
q-dimensional expectation collapses to a one-dimensional Gaussian integral.

The integrand concentrates in bumps of width sigma_n around the quantizer
decision boundaries while the Gaussian density has width sigma_s, and the
two scales separate badly for strong gains, so a plain Hermite rule stalls.
The integral is therefore evaluated over Gauss-Legendre panels refined
around the boundaries, at Gauss-Legendre order n_nodes / 8 per panel
(DEFAULT_NODES everywhere but in an explicit InfoKernel).  Each guarded
value is checked against the Gauss-Kronrod extension of the same panels,
which reuses the kernel values at the Gauss nodes and adds order + 1 nodes
per panel; one cached build per sensor and node count (`_node_tables`)
lays out the panels once and makes the tables of both rules.  The check
is local: each of the m panels may contribute 1/m of the tolerance.  A
value it flags walks the (n, 2n - 1, 4n - 3) ladder, which returns the
coarsest rung that the next rung confirms.  The guard lives on InfoKernel
(`t_checked`), so `t_k`, `tabulate_t` and the solvers share one policy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import BelowFloor, DimensionMismatch, QuadratureNotConverged
from .model import Network, Prior, Sensor
from .quantcomm import (
    _alpha_entries,
    _alpha_slope,
    _beta_dot_table,
    _beta_table,
    _bit_error_slope,
    bit_error_prob,
    make_quantizer,
)

DEFAULT_NODES = 81
_QUAD_RTOL = 1e-6
_DEN_FLOOR = 1e-300
# Estimates below this are numerically zero (the true scale of nonzero t
# values is many orders larger); skip the relative convergence test there.
_ZERO_SCALE = 1e-20


@lru_cache(maxsize=64)
def _gl_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _kronrod_b(order: int) -> np.ndarray:
    """Recurrence coefficients b_0 .. b_2n of the 2n + 1 point Kronrod rule, n = order.

    Laurie's algorithm (Math. Comp. 66, 1997) extends the monic Legendre
    recurrence b_0 = 2, b_k = k^2 / (4 k^2 - 1) to the Jacobi matrix whose
    eigenvalues are the Gauss-Kronrod nodes.  It is specialised here to the
    symmetric Legendre weight, where every diagonal coefficient is zero.
    s and t hold two consecutive rows of mixed moments.
    """
    n = order
    k = np.arange(1.0, (3 * n + 1) // 2 + 1)
    b = np.zeros(2 * n + 1)
    b[0] = 2.0
    b[1:k.size + 1] = k * k / (4.0 * k * k - 1.0)
    s = np.zeros(n // 2 + 2)
    t = np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0.0
        for j in range((m + 1) // 2, -1, -1):
            u += b[j + n + 1] * s[j] - b[m - j] * s[j + 1]
            s[j + 1] = u
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for j in range(m + 1 - n, (m - 1) // 2 + 1):
            i = n - 1 - m + j
            u += b[m - j] * s[i + 2] - b[j + n + 1] * s[i + 1]
            s[i + 1] = u
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[i + 1] / s[i + 2]
        s, t = t, s
    return b


@lru_cache(maxsize=64)
def _gk_rule(order: int):
    """Gauss-Kronrod extension of the order-point Gauss-Legendre rule on [-1, 1].

    Returns (x, wx, y, wy): x is _gl_rule(order)'s node array itself, wx the
    Kronrod weights at those nodes, y the order + 1 Kronrod-only nodes in
    ascending order and wy their weights.  The 2 order + 1 point rule is
    exact for polynomials of degree 3 order + 1.  The Kronrod-only nodes are
    eigenvalues of Laurie's Jacobi matrix; every weight is the Christoffel
    number 1 / sum_k q_k(x)^2 over the matrix's orthonormal polynomials,
    which is more accurate than one read off an eigenvector.
    """
    x, _ = _gl_rule(order)
    b = _kronrod_b(order)
    root_b = np.sqrt(b)
    y = np.linalg.eigvalsh(np.diag(root_b[1:], 1) + np.diag(root_b[1:], -1))[0::2]
    y = 0.5 * (y - y[::-1])

    def christoffel(z):
        q_prev, q = 0.0, np.full_like(z, 1.0 / root_b[0])
        total = q * q
        for k in range(2 * order):
            q_prev, q = q, (z * q - root_b[k] * q_prev) / root_b[k + 1]
            total = total + q * q
        w = 1.0 / total
        return 0.5 * (w + w[::-1])

    wx, wy = christoffel(x), christoffel(y)
    for array in (wx, y, wy):
        array.setflags(write=False)
    return x, wx, y, wy


# Panel layout constants: half-width of the density support kept, boundary
# refinement offsets in units of sigma_n, and panel width caps in units of
# the feature scale (in the refined zone) and the density scale (outside).
_DENSITY_SPAN = 8.5
_REFINE_OFFSETS = (1.5, 4.0, 12.0)
_ZONE_CAP_FEATURE = 6.0
_CAP_DENSITY = 2.5


def _panel_edges(boundaries: np.ndarray, sigma_n: float, sigma_s: float) -> np.ndarray:
    """Panel edges covering the Gaussian support, refined at the boundaries."""
    lim = _DENSITY_SPAN * sigma_s
    interior = boundaries[1:-1]
    edges = [-lim, lim]
    for b in interior:
        if -lim < b < lim:
            edges.append(b)
        for c in _REFINE_OFFSETS:
            for e in (b - c * sigma_n, b + c * sigma_n):
                if -lim < e < lim:
                    edges.append(e)
    edges = np.unique(np.asarray(edges))
    # Drop near-duplicate edges so panel widths stay well conditioned.
    keep = np.concatenate(([True], np.diff(edges) > 1e-9 * max(lim, sigma_n)))
    edges = edges[keep]
    if edges[-1] != lim:
        edges = np.append(edges, lim)
    zone_lo = interior[0] - _REFINE_OFFSETS[-1] * sigma_n if interior.size else math.inf
    zone_hi = interior[-1] + _REFINE_OFFSETS[-1] * sigma_n if interior.size else -math.inf
    refined = [edges[0]]
    for left, right in zip(edges[:-1], edges[1:]):
        in_zone = right > zone_lo and left < zone_hi
        cap = min(_ZONE_CAP_FEATURE * sigma_n, _CAP_DENSITY * sigma_s) if in_zone \
            else _CAP_DENSITY * sigma_s
        pieces = max(1, int(math.ceil((right - left) / cap)))
        step = (right - left) / pieces
        for i in range(1, pieces + 1):
            refined.append(left + i * step)
    return np.asarray(refined)


def _resolution_to_order(n_nodes: int) -> int:
    return max(4, int(round(n_nodes / 8)))


def _panel_nodes(x: np.ndarray, w: np.ndarray, centers: np.ndarray, halves: np.ndarray,
                 sigma_s: float):
    """Nodes s of rule (x, w) on every panel, and weights folding in the density."""
    s = (centers[:, None] + halves[:, None] * x[None, :]).ravel()
    density = np.exp(-0.5 * (s / sigma_s) ** 2) / (sigma_s * math.sqrt(2.0 * math.pi))
    weights = (halves[:, None] * w[None, :]).ravel() * density
    weights.setflags(write=False)
    return s, weights


def _cell_tables(s: np.ndarray, quantizer, sigma_n: float):
    """Read-only cell probabilities b and scaled slopes bd at the nodes s."""
    b = _beta_table(s, quantizer, sigma_n)
    bd = _beta_dot_table(s, quantizer, sigma_n)
    b.setflags(write=False)
    bd.setflags(write=False)
    return b, bd


def _panels(bits: int, tau: float, sigma_n: float, sigma_s: float):
    """The sensor's quantizer, and the centres and half-widths of its panels."""
    quantizer = make_quantizer(bits, tau)
    edges = _panel_edges(quantizer.boundaries, sigma_n, sigma_s)
    return quantizer, 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)


@lru_cache(maxsize=512)
def _node_tables(bits: int, tau: float, sigma_n: float, sigma_s: float, n_nodes: int):
    """Quadrature tables for one sensor: its Gauss rule and that rule's Kronrod check.

    Returns (weights, b, bd, kronrod).  b[i, l] and bd[i, l] are the cell
    probability and its scaled slope at Gauss node s_i, and the weights
    fold in the Gaussian density and panel half-widths, so a weighted sum
    of kernel values approximates the expectation.  kronrod is
    (gap_weights, weights, b, bd) on the same panels: gap_weights[i, 0]
    holds the Gauss weights less the Kronrod weights at panel i's Gauss
    nodes, weights[i, 0] the Kronrod weights at its Kronrod-only nodes, and
    b and bd the tables there.  Panel i's Gauss sum less its Kronrod sum is
    gap_weights[i] @ g(its Gauss nodes) - weights[i] @ g(its Kronrod-only
    nodes), one matrix product per rule for all panels.  Cached by value,
    so identical sensors share tables.
    """
    order = _resolution_to_order(n_nodes)
    x, wx, y, wy = _gk_rule(order)
    quantizer, centers, halves = _panels(bits, tau, sigma_n, sigma_s)
    s, weights = _panel_nodes(x, _gl_rule(order)[1], centers, halves, sigma_s)
    _, kronrod_at_gauss = _panel_nodes(x, wx, centers, halves, sigma_s)
    gap_weights = (weights - kronrod_at_gauss).reshape(-1, 1, order)
    gap_weights.setflags(write=False)
    s_kronrod, kronrod_weights = _panel_nodes(y, wy, centers, halves, sigma_s)
    kronrod = (gap_weights, kronrod_weights.reshape(-1, 1, order + 1),
               *_cell_tables(s_kronrod, quantizer, sigma_n))
    return (weights, *_cell_tables(s, quantizer, sigma_n), kronrod)


def _kernel_values(b: np.ndarray, bd: np.ndarray, alpha: np.ndarray,
                   alpha_slope: np.ndarray | None = None) -> np.ndarray:
    """The information kernel, or its p-slope, at each node of the (n, M) tables b and bd.

    At each node, sums over received levels the squared confusion-weighted
    slope over the confusion-weighted cell probability.  Terms whose
    denominator falls below _DEN_FLOOR are skipped; they vanish faster in
    the numerator than the denominator, so dropping them is conservative.
    Given alpha_slope = d(alpha)/dp, returns the kernel's p-derivative
    instead.
    """
    num = bd @ alpha.T
    den = b @ alpha.T
    keep = den >= _DEN_FLOOR
    if alpha_slope is None:
        terms = np.divide(num * num, den, out=np.zeros_like(den), where=keep)
    else:
        num_d = bd @ alpha_slope.T
        den_d = b @ alpha_slope.T
        terms = np.divide(2.0 * num * num_d * den - num * num * den_d, den * den,
                          out=np.zeros_like(den), where=keep)
    return np.sum(terms, axis=1)


def _kernel_sum(weights: np.ndarray, b: np.ndarray, bd: np.ndarray,
                alpha: np.ndarray, alpha_slope: np.ndarray | None = None) -> float:
    """Weighted sum over the nodes of the information kernel, or of its p-slope."""
    return float(weights @ _kernel_values(b, bd, alpha, alpha_slope))


class InfoKernel:
    """Cached per-sensor evaluator of t(P) and dt/dP at fixed node count.

    Builds the quadrature tables once and reuses them for every power, so
    tabulating a power grid or iterating inside a solver costs one confusion
    matrix per power instead of a fresh quadrature setup.  `t` and `t_prime`
    perform no convergence check.  `t_checked` checks `t` against the
    Gauss-Kronrod extension of the same panels (whose tables come with the
    node tables) and sends a value that check flags up the (n, 2n - 1,
    4n - 3) ladder, whose rungs the kernel builds when first needed and
    keeps for later powers.  `t_prime` takes p and dp/dP from quantcomm,
    which owns the link.
    """

    def __init__(self, sensor: Sensor, prior: Prior, n_nodes: int = DEFAULT_NODES):
        gain = sensor.gain
        if gain.shape != (prior.q,):
            raise DimensionMismatch(
                f"sensor gain has dimension {gain.shape[0]}, prior has q={prior.q}"
            )
        self.sensor = sensor
        self.prior = prior
        self.n_nodes = n_nodes
        self._finer: list = []
        self.prefactor = float(gain @ gain) / (2.0 * math.pi * sensor.sigma_n ** 2)
        self.sigma_s = math.sqrt(max(float(gain @ prior.covariance @ gain), 0.0))
        if self.sigma_s > 0.0:
            self._weights, self._b, self._bd, self._kronrod_check = _node_tables(
                sensor.bits, sensor.tau, sensor.sigma_n, self.sigma_s, n_nodes
            )
        else:
            self._weights = self._b = self._bd = self._kronrod_check = None

    def expected_g(self, p_bit: float, with_check: bool = False):
        """Gaussian expectation of the information kernel at bit-error rate p_bit.

        With `with_check`, returns the pair (expectation, error).  error is
        m times the largest gap, over the m panels, between a panel's Gauss
        sum and its Gauss-Kronrod sum, which reuses the kernel values at the
        Gauss nodes and adds those at the Kronrod-only nodes.  It is at least
        the sum of the panels' absolute gaps, so never below the whole
        rule's gap.  The check rides on this method, not a separate one, so
        that the tracer in perfbench/, which wraps expected_g by name,
        counts one call per checked value.
        """
        if self._weights is None:
            return (0.0, 0.0) if with_check else 0.0
        alpha = _alpha_entries(self.sensor.bits, p_bit)
        g = _kernel_values(self._b, self._bd, alpha)
        value = float(self._weights @ g)
        if not with_check:
            return value
        gap_weights, weights, b, bd = self._kronrod_check
        panels = gap_weights.shape[0]
        gaps = gap_weights @ g.reshape(panels, -1, 1) \
            - weights @ _kernel_values(b, bd, alpha).reshape(panels, -1, 1)
        return value, panels * float(np.abs(gaps).max())

    def expected_g_slope(self, p_bit: float) -> float:
        """d/dp of expected_g, by differentiating the confusion entries."""
        if self._weights is None:
            return 0.0
        bits = self.sensor.bits
        return _kernel_sum(self._weights, self._b, self._bd,
                           _alpha_entries(bits, p_bit), _alpha_slope(bits, p_bit))

    def t(self, power: float) -> float:
        """Information contribution at the given transmit power."""
        if self.prefactor == 0.0:
            return 0.0
        return self.prefactor * self.expected_g(bit_error_prob(power, self.sensor))

    def t_checked(self, power: float) -> float:
        """t at `power`, checked by its Gauss-Kronrod extension or else by the ladder.

        Returns t itself when the Kronrod error estimate is within
        _QUAD_RTOL relative.  Otherwise returns the coarsest rung of the
        (n, 2n - 1, 4n - 3) ladder that the next rung confirms, and raises
        QuadratureNotConverged when even the 4n - 3 rung moves by more than
        _QUAD_RTOL relative from the 2n - 1 one.
        """
        p = bit_error_prob(power, self.sensor)  # a negative or NaN power raises, even at zero gain
        if self.prefactor == 0.0:
            return 0.0
        gauss, error = self.expected_g(p, with_check=True)
        previous = self.prefactor * gauss
        if _within_tolerance(previous, self.prefactor * error):
            return previous
        for rung, n in enumerate((2 * self.n_nodes - 1, 4 * self.n_nodes - 3)):
            if rung == len(self._finer):
                self._finer.append(InfoKernel(self.sensor, self.prior, n))
            estimate = self.prefactor * self._finer[rung].expected_g(p)
            if _converged(previous, estimate):
                return previous
            previous = estimate
        raise QuadratureNotConverged(
            f"t at power {power} still moved by more than {_QUAD_RTOL:g} relative "
            f"after escalating to {4 * self.n_nodes - 3} nodes"
        )

    def t_prime(self, power: float) -> float:
        """Derivative of the contribution with respect to power (power > 0)."""
        if self.prefactor == 0.0:
            return 0.0
        p = bit_error_prob(power, self.sensor)
        return self.prefactor * self.expected_g_slope(p) * _bit_error_slope(power, self.sensor)


def _converged(coarse: float, fine: float) -> bool:
    scale = max(abs(coarse), abs(fine))
    if scale < _ZERO_SCALE:
        return True
    return abs(fine - coarse) <= _QUAD_RTOL * scale


def _within_tolerance(value: float, error: float) -> bool:
    """Whether an error estimate for value is within _QUAD_RTOL relative of it.

    Passes without the relative test only where value and error together
    are numerically zero.
    """
    if abs(value) + error < _ZERO_SCALE:
        return True
    return error <= _QUAD_RTOL * abs(value)


def t_k(power: float, sensor: Sensor, prior: Prior) -> float:
    """Per-sensor information contribution t(P), with a quadrature guard.

    A fresh InfoKernel evaluates `t_checked`: the Gaussian expectation on
    the DEFAULT_NODES rung, checked against its Gauss-Kronrod extension,
    and where that check flags it, up the (n, 2n - 1, 4n - 3) ladder before
    raising QuadratureNotConverged.
    Nonnegative, and exactly zero at P = 0 up to roundoff.
    """
    return InfoKernel(sensor, prior).t_checked(power)


def t_k_derivative(power: float, sensor: Sensor, prior: Prior) -> float:
    """dt/dP via the chain rule through the bit-error rate.

    The confusion entries are differentiated analytically in p and the same
    quadrature integrates the result; the bit-error slope supplies dp/dP.
    Raises BelowFloor for nonpositive powers, where the 1/sqrt(P) factor in
    dp/dP blows up.
    """
    if power <= 0.0:
        raise BelowFloor(f"power {power} is below the derivative floor 0.0")
    return InfoKernel(sensor, prior).t_prime(power)


def trace_fim(powers, selection, network: Network) -> float:
    """Objective value: prior baseline plus the selected sensors' contributions.

    Unselected sensors contribute nothing regardless of their power entry.
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
    total = network.prior.inverse_trace
    for i, sensor in enumerate(network.sensors):
        if selection[i]:
            total += t_k(float(powers[i]), sensor, network.prior)
    return total


def tabulate_t(network: Network, power_grid) -> np.ndarray:
    """Table of t values: entry (k, j) is sensor k's contribution at grid[j].

    Each entry equals t_k at that power; a row evaluates one InfoKernel,
    so its sensor's tables and ladder rungs are built once and reused for
    every grid power.
    """
    grid = np.asarray(power_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("power grid must be a non-empty vector")
    if np.any(np.diff(grid) < 0.0) or grid[0] < 0.0:
        raise ValueError("power grid must be ascending and nonnegative")
    table = np.zeros((network.k, grid.size))
    for row, sensor in enumerate(network.sensors):
        kernel = InfoKernel(sensor, network.prior)
        for j, power in enumerate(grid):
            table[row, j] = kernel.t_checked(float(power))
    return table
