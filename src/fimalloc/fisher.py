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
value is re-checked one rung up an (n, 2n - 1, 4n - 3) resolution ladder;
the ladder lives on InfoKernel (`t_checked`), so `t_k`, `tabulate_t` and
the solvers share one policy.
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


@lru_cache(maxsize=512)
def _node_tables(bits: int, tau: float, sigma_n: float, sigma_s: float, n_nodes: int):
    """Cell-probability tables at the quadrature nodes for one sensor.

    Returns (weights, b, bd) where b[i, l] and bd[i, l] are the cell
    probability and its scaled slope at node s_i, and the weights fold in
    the Gaussian density and panel half-widths, so a weighted sum of kernel
    values approximates the expectation.  Cached by value, so identical
    sensors share tables.
    """
    quantizer = make_quantizer(bits, tau)
    x, w = _gl_rule(_resolution_to_order(n_nodes))
    edges = _panel_edges(quantizer.boundaries, sigma_n, sigma_s)
    centers = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    s = (centers[:, None] + halves[:, None] * x[None, :]).ravel()
    density = np.exp(-0.5 * (s / sigma_s) ** 2) / (sigma_s * math.sqrt(2.0 * math.pi))
    weights = (halves[:, None] * w[None, :]).ravel() * density
    b = _beta_table(s, quantizer, sigma_n)
    bd = _beta_dot_table(s, quantizer, sigma_n)
    weights.setflags(write=False)
    b.setflags(write=False)
    bd.setflags(write=False)
    return weights, b, bd


def _kernel_sum(weights: np.ndarray, b: np.ndarray, bd: np.ndarray,
                alpha: np.ndarray, alpha_slope: np.ndarray | None = None) -> float:
    """Weighted sum over the nodes of the information kernel, or of its p-slope.

    At each node of the (n, M) tables b and bd, sums over received levels
    the squared confusion-weighted slope over the confusion-weighted cell
    probability.  Terms whose denominator falls below _DEN_FLOOR are
    skipped; they vanish faster in the numerator than the denominator, so
    dropping them is conservative.  Given alpha_slope = d(alpha)/dp, sums
    the kernel's p-derivative instead.
    """
    num = bd @ alpha.T
    den = b @ alpha.T
    keep = den >= _DEN_FLOOR
    safe = np.where(keep, den, 1.0)
    if alpha_slope is None:
        g = np.sum(np.where(keep, num * num / safe, 0.0), axis=1)
    else:
        num_d = bd @ alpha_slope.T
        den_d = b @ alpha_slope.T
        g = np.sum(
            np.where(keep, (2.0 * num * num_d * safe - num * num * den_d) / (safe * safe), 0.0),
            axis=1,
        )
    return float(weights @ g)


class InfoKernel:
    """Cached per-sensor evaluator of t(P) and dt/dP at fixed node count.

    Builds the quadrature tables once and reuses them for every power, so
    tabulating a power grid or iterating inside a solver costs one confusion
    matrix per power instead of a fresh quadrature setup.  `t` and `t_prime`
    perform no convergence check; `t_checked` re-checks `t` on the finer
    rungs of the (n, 2n - 1, 4n - 3) node ladder, which the kernel builds
    when first needed and keeps for later powers.
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
            self._weights, self._b, self._bd = _node_tables(
                sensor.bits, sensor.tau, sensor.sigma_n, self.sigma_s, n_nodes
            )
        else:
            self._weights = self._b = self._bd = None

    def expected_g(self, p_bit: float) -> float:
        """Gaussian expectation of the information kernel at bit-error rate p_bit."""
        if self._weights is None:
            return 0.0
        return _kernel_sum(self._weights, self._b, self._bd,
                           _alpha_entries(self.sensor.bits, p_bit))

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
        """t at `power` from the coarsest ladder rung that the next rung confirms.

        Raises QuadratureNotConverged when even the 4n - 3 rung moves by more
        than _QUAD_RTOL relative from the 2n - 1 one.
        """
        p = bit_error_prob(power, self.sensor)  # raises on a negative power, even at zero gain
        if self.prefactor == 0.0:
            return 0.0
        previous = self.prefactor * self.expected_g(p)
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
        sensor = self.sensor
        p = bit_error_prob(power, sensor)
        z = sensor.h_mag * math.sqrt(power / sensor.bits) / sensor.sigma_nu
        dp_dpower = -math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) \
            * sensor.h_mag / (2.0 * sensor.sigma_nu * math.sqrt(power * sensor.bits))
        return self.prefactor * self.expected_g_slope(p) * dp_dpower


def _converged(coarse: float, fine: float) -> bool:
    scale = max(abs(coarse), abs(fine))
    if scale < _ZERO_SCALE:
        return True
    return abs(fine - coarse) <= _QUAD_RTOL * scale


def t_k(power: float, sensor: Sensor, prior: Prior) -> float:
    """Per-sensor information contribution t(P), with a quadrature guard.

    A fresh InfoKernel evaluates `t_checked`: the Gaussian expectation on
    the DEFAULT_NODES rung, checked against roughly double the resolution,
    escalating once more before raising QuadratureNotConverged.
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
    so its sensor's ladder rungs are built once and reused for every grid
    power.
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
