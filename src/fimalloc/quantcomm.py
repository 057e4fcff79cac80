"""Quantizer, binary encoding, BPSK channel, and their probability kernels.

The uniform quantizer maps an observation to the nearest of M = 2**bits
levels.  The level index is sent as a natural-binary codeword, one BPSK
symbol per bit, over a fading channel with additive Gaussian noise and
coherent detection.  Independent per-bit errors induce a symbol confusion
matrix; the cell probabilities and their slope drive the information
computation downstream.  The bit-error rate p(P) and its slope dp/dP
share one link SNR z(P), the one check that a power is nonnegative.

The confusion matrix and cell-probability kernels here are reconstructions
from that channel model; the Monte Carlo oracles in this module exist to
validate them by simulation rather than by derivation.

The one special function is the normal CDF Phi, written as
erfc(x) = exp(-x^2) erfcx(x) with x = |z| / sqrt 2, the classic split of
its Gaussian factor from a smooth, slowly varying one (Cody, "Rational
Chebyshev approximations for the error function", Math. Comp. 1969).  The
bit-error rate takes one value from the standard library's `math.erfc`,
corrected for the rounding of z / sqrt 2, to a few units in the last
place.  The cell tables take the lower tail Phi(-|z|) over whole arrays: a
piecewise polynomial for erfcx, fitted at import to `math.erfc` and
`math.exp`, times the exp(-z^2 / 2) that the cell slopes need anyway.  Its
relative error is below 1e-13 down to Phi = 1e-300 (see `_phi`).  Nothing
here needs scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import Sensor, _checked, _number

_SQRT2 = math.sqrt(2.0)
_TINY = np.finfo(float).tiny  # smallest normal float; `_cell_tables` flushes entries below it

# The lower tail Phi(-a), a = |z|, is 0.5 exp(-a^2 / 2) erfcx(a / sqrt 2) with
# erfcx(x) = exp(x^2) erfc(x), which is smooth and falls like 1 / (x sqrt pi).
# s = _TAIL_SCALE / (a + _TAIL_SHIFT) maps a in [0, inf] onto s in [0, P],
# P = _TAIL_PIECES, and on each piece j - 1 < s <= j the factor
# 0.5 erfcx(a / sqrt 2) is one polynomial of degree _TAIL_DEGREE in
# w = s - j, in (-1, 0].  Piece 0 holds s = 0, a = inf, where it is zero.
_TAIL_PIECES = 64
_TAIL_DEGREE = 6
_TAIL_SHIFT = 3.0
_TAIL_SCALE = _TAIL_PIECES * _TAIL_SHIFT
_ASYMPTOTIC_X = 10.0


def _split_square(v: float):
    """v^2 as head + tail: head is exact, and tail is below 2^-25 v^2.

    Veltkamp's split rounds v to root, its leading 26 bits, whose square
    is exact; tail = (v - root)(v + root) carries the rest, to a relative
    error of 2^-53.
    """
    scaled = 134217729.0 * v  # 2^27 + 1
    root = scaled - (scaled - v)
    return root * root, (v - root) * (v + root)


def _erfcx_reference(x: float) -> float:
    """exp(x^2) erfc(x) at one double x >= 0, to a few units in the last place.

    Below _ASYMPTOTIC_X, math.erfc times exp(x^2), with x^2 from
    `_split_square` so rounding x^2 costs nothing.  Above it, the
    asymptotic series 1 / (x sqrt pi) sum_k (-1)^k (2k - 1)!! / (2x^2)^k,
    summed until its terms fall below 1e-17, far before they start to grow.
    """
    if x >= _ASYMPTOTIC_X:
        total = term = 1.0
        k = 0
        while abs(term) > 1e-17:
            k += 1
            term *= -(2 * k - 1) / (2.0 * x * x)
            total += term
        return total / (x * math.sqrt(math.pi))
    head, tail = _split_square(x)
    return math.erfc(x) * math.exp(head) * math.exp(tail)


def _tail_coefficients() -> np.ndarray:
    """Monomial coefficients of every piece's polynomial; shape (_TAIL_DEGREE + 1, P + 1).

    Row k holds the w^k coefficients, column j piece j.  Each piece is
    exact at its right end w = 0, where the constant term is the value
    itself (so Phi(0) = 0.5 exactly), and interpolates 0.5 erfcx at the
    _TAIL_DEGREE Chebyshev points of (-1, 0) elsewhere.  The nodes' w are
    recomputed from their a as `_half_erfcx` does, so the fit sees the
    rounding the evaluation will.
    """
    degree = _TAIL_DEGREE
    right = np.arange(1, _TAIL_PIECES + 1, dtype=float)[:, None]
    chebyshev = 0.5 * (np.cos(np.pi * (np.arange(degree) + 0.5) / degree) - 1.0)
    a = _TAIL_SCALE / (right + np.concatenate(([0.0], chebyshev))) - _TAIL_SHIFT
    w = _TAIL_SCALE / (a + _TAIL_SHIFT) - right
    half = np.array([[0.5 * _erfcx_reference(v / _SQRT2) for v in row] for row in a.tolist()])
    slopes = (half[:, 1:] - half[:, :1]) / w[:, 1:]
    powers = w[:, 1:, None] ** np.arange(degree)
    coefficients = np.zeros((degree + 1, _TAIL_PIECES + 1))
    coefficients[0, 1:] = half[:, 0]
    coefficients[1:, 1:] = np.linalg.solve(powers, slopes[:, :, None])[:, :, 0].T
    coefficients.setflags(write=False)
    return coefficients


_TAIL = _tail_coefficients()


def _half_erfcx(a: np.ndarray) -> np.ndarray:
    """0.5 erfcx(a / sqrt 2) elementwise for a >= 0 (inf gives 0; NaN is not accepted)."""
    s = _TAIL_SCALE / (a + _TAIL_SHIFT)
    right = np.ceil(s)
    w = s - right
    piece = right.astype(np.intp)
    value = _TAIL[-1].take(piece)
    for row in _TAIL[-2::-1]:
        value *= w
        value += row.take(piece)
    return value


def _phi(z):
    """Standard normal CDF, elementwise.

    The lower tail Phi(-|z|) is g * 0.5 erfcx(|z| / sqrt 2) with
    g = exp(-z^2 / 2), and Phi(z) for z > 0 is 1 - Phi(-z), so
    Phi(z) + Phi(-z) = 1 to within one rounding.  `_cell_tables` builds the
    same lower tail from the g its slopes need.

    The relative error is below 1e-13 wherever Phi(z) >= 1e-300, that is
    z >= -37: the piecewise erfcx is within about 1e-15 of the true one,
    and rounding z^2 / 2 moves exp(-z^2 / 2) by at most z^2 / 2 * 2^-53,
    7.6e-14 at z = -37.  Phi(0) is 0.5 exactly.  Neighbouring pieces meet
    to within about 1e-15 relative, so Phi is nondecreasing on any grid
    whose steps move it by more than that.
    """
    z = np.asarray(z, dtype=float)
    lower = np.exp(-0.5 * z * z) * _half_erfcx(np.abs(z))
    return np.where(z > 0.0, 1.0 - lower, lower)


@dataclass(frozen=True)
class QuantizerSpec:
    """Uniform quantizer: levels, step, and decision boundaries.

    levels[0] = -tau and levels[-1] = +tau; interior boundaries sit at cell
    midpoints, with the outermost cells extended to +-infinity so every
    observation lands somewhere and the cell probabilities sum to one.
    """

    bits: int
    levels: np.ndarray       # (M,)
    step: float
    boundaries: np.ndarray   # (M+1,) with -inf / +inf at the ends

    @property
    def m(self) -> int:
        return 2 ** self.bits


def make_quantizer(bits: int, tau: float) -> QuantizerSpec:
    """Uniform quantizer with M = 2**bits levels spanning [-tau, +tau]."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    m = 2 ** bits
    step = 2.0 * tau / (m - 1)
    ell = np.arange(1, m + 1)
    levels = (2 * ell - 1 - m) * step / 2.0
    boundaries = np.empty(m + 1)
    boundaries[0] = -np.inf
    boundaries[-1] = np.inf
    boundaries[1:-1] = (np.arange(1, m) - m / 2.0) * step
    levels.setflags(write=False)
    boundaries.setflags(write=False)
    return QuantizerSpec(bits=bits, levels=levels, step=step, boundaries=boundaries)


@lru_cache(maxsize=32)
def _hamming_matrix(bits: int) -> np.ndarray:
    """Pairwise Hamming distances of the natural-binary codewords 0..2**bits-1.

    The distance of two codewords is the weight of their XOR, itself a
    codeword, so one table of the M code weights, indexed by the XOR
    matrix, gives them all.
    """
    m = 2 ** bits
    codes = np.arange(m)
    weights = np.array([code.bit_count() for code in range(m)])
    dist = weights[codes[:, None] ^ codes]
    dist.setflags(write=False)
    return dist


@lru_cache(maxsize=32)
def _distance_exponents(bits: int):
    """Exponents of p and 1 - p at each Hamming distance d = 0..bits.

    Returns (d, rest, d_less, rest_less) with rest = bits - d, and d - 1 and
    rest - 1 floored at zero: the entries' exponents, then those of the
    slope's rising and falling terms, whose factor d or rest is zero where
    the floor applies.  Cached, so an entry or slope evaluation builds no
    index arrays of its own.
    """
    d = np.arange(bits + 1)
    exponents = (d, bits - d, np.maximum(d - 1, 0), np.maximum(bits - d - 1, 0))
    for array in exponents:
        array.setflags(write=False)
    return exponents


@lru_cache(maxsize=4096)
def _alpha_entries(bits: int, p: float) -> np.ndarray:
    """Confusion probabilities p**d * (1-p)**(L-d) over codeword Hamming distance d.

    Computed once per distance d = 0..L and spread over the matrix by the
    Hamming distances, which is elementwise the same arithmetic.  The
    matrix is symmetric, and for p <= 1/2 its smallest entry is p**L, at
    [0, -1] (codewords 0 and M - 1 differ in every bit).
    """
    d, rest, _, _ = _distance_exponents(bits)
    entries = (p ** d * (1.0 - p) ** rest)[_hamming_matrix(bits)]
    entries.setflags(write=False)
    return entries


@lru_cache(maxsize=4096)
def _alpha_slope(bits: int, p: float) -> np.ndarray:
    """Elementwise derivative of the confusion entries with respect to p; symmetric."""
    d, rest, d_less, rest_less = _distance_exponents(bits)
    rising = d * p ** d_less * (1.0 - p) ** rest
    falling = rest * p ** d * (1.0 - p) ** rest_less
    slope = (rising - falling)[_hamming_matrix(bits)]
    slope.setflags(write=False)
    return slope


def _link_snr(power: float, sensor: Sensor) -> float:
    """z = h_mag * sqrt(power / bits) / sigma_nu; a negative or NaN power raises ValueError."""
    if not power >= 0.0:
        raise ValueError(f"power must be nonnegative, got {power}")
    return sensor.h_mag * math.sqrt(power / sensor.bits) / sensor.sigma_nu


def bit_error_prob(power: float, sensor: Sensor) -> float:
    """Per-bit error probability of coherent BPSK at the given transmit power.

    The power is split evenly over the sensor's `bits` symbols; the
    detection statistic has amplitude h_mag * sqrt(power / bits) against
    noise of std sigma_nu, so p = Q(z) = Phi(-z) = erfc(z / sqrt 2) / 2
    with z from _link_snr.  Accurate to a few units in the last place at
    that z.  Decreasing in power, with p(0) = 1/2.
    """
    z = _link_snr(power, sensor)
    x = z / _SQRT2
    p = 0.5 * math.erfc(x)
    if p == 0.0:
        return p
    # erfc(x) = exp(-x^2) erfcx(x), and erfcx hardly moves with x, so the
    # factor exp(x^2 - z^2 / 2) undoes the rounding of z / sqrt 2, which
    # erfc would otherwise amplify z^2 times.  The two heads are exact and
    # within a factor 2 of each other, so their difference is exact too.
    head_x, tail_x = _split_square(x)
    head_z, tail_z = _split_square(z)
    return p * math.exp((head_x - 0.5 * head_z) + (tail_x - 0.5 * tail_z))


def _bit_error_slope(power: float, sensor: Sensor) -> float:
    """dp/dP of bit_error_prob (power > 0): -phi(z) * dz/dP, with phi the normal density."""
    z = _link_snr(power, sensor)
    return -math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) \
        * sensor.h_mag / (2.0 * sensor.sigma_nu * math.sqrt(power * sensor.bits))


def alpha_matrix(power: float, sensor: Sensor) -> np.ndarray:
    """Symbol confusion matrix induced by independent per-bit errors.

    Entry [t, l] is P(decode level t+1 | sent level l+1); the (M, M) matrix
    is symmetric, doubly stochastic and read-only.
    """
    return _alpha_entries(sensor.bits, bit_error_prob(power, sensor))


def _cell_tables(s_values: np.ndarray, quantizer: QuantizerSpec, sigma_n: float) -> np.ndarray:
    """Cell probabilities over their scaled slopes for each s in s_values; shape (2n, M).

    With z_l = (b_l - s) / sigma_n at the boundaries b_l and
    g_l = exp(-z_l^2 / 2), rows 0..n-1 hold the cell probabilities
    Phi(z_l) - Phi(z_{l-1}) and rows n..2n-1 the scaled slopes
    g_{l-1} - g_l, which are sigma * sqrt(2 pi) times the s-derivatives of
    the cell probabilities.  The remaining normalization lives in the
    information prefactor downstream, so it is deliberately not applied
    here.  One build makes both halves: g is also the Gaussian factor of
    the lower tails Phi(-|z_l|) (see `_phi`).  A cell wholly above s
    (z_{l-1} > 0) takes the difference of upper tails
    Phi(-z_{l-1}) - Phi(-z_l), which keeps its relative accuracy however
    small it is; the difference of two CDF values near 1 would carry an
    absolute error near 1e-16.

    Entries below the smallest normal float, 2.2e-308, in magnitude are
    flushed to zero: a product with subnormal operands takes the processor's
    slow path, two to three times slower on some golden tables.  The flush
    does not move a kernel value.  Each entry enters a den or a num times a
    confusion entry of at most one, so it changes either by less than
    2.2e-308.  A den is at least p**L (see fisher), and wherever that is at
    least 2.0e-292 such a change is below half its last place.  Measured
    over the rest: t and t' are the same bits with and without the flush
    for golden and 60 fuzzed networks, at P = 0 and 160 powers up to 1e6.
    """
    n, m = s_values.size, quantizer.m
    # Boundary by node, so each step runs over contiguous rows; rows z = -inf, +inf stay 0.
    g, lower = np.zeros((m + 1, n)), np.zeros((m + 1, n))
    z = lower[1:-1]  # until it takes Phi(-|z_l|)
    np.divide(quantizer.boundaries[1:-1, None] - s_values, sigma_n, out=z)
    above = lower > 0.0
    above[-1] = True
    np.exp(np.multiply(z, -0.5 * z), out=g[1:-1])
    np.multiply(g[1:-1], _half_erfcx(np.abs(z)), out=z)
    cdf = np.subtract(1.0, lower, out=lower.copy(), where=above)
    tables = np.empty((2 * n, m))
    np.subtract(cdf[1:], cdf[:-1], out=tables[:n].T)
    np.subtract(lower[:-1], lower[1:], out=tables[:n].T, where=above[:-1])
    np.subtract(g[:-1], g[1:], out=tables[n:].T)
    np.copyto(tables, 0.0, where=np.abs(tables) < _TINY)
    return tables


def _one_node_tables(s: float, quantizer: QuantizerSpec, sigma_n: float) -> np.ndarray:
    """`_cell_tables` at the one node s; a sigma_n that is not positive and finite,
    or an s that is not finite, raises ValueError naming it."""
    sigma_n = _checked(sigma_n=sigma_n)["sigma_n"]
    return _cell_tables(np.array([_number(s, "s", "finite")]), quantizer, sigma_n)


def beta(s: float, quantizer: QuantizerSpec, sigma_n: float) -> np.ndarray:
    """Probability that the observation s + noise lands in each quantizer cell.

    Entries are nonnegative and sum to one.
    """
    return _one_node_tables(s, quantizer, sigma_n)[0]


def beta_dot(s: float, quantizer: QuantizerSpec, sigma_n: float) -> np.ndarray:
    """Slope kernel of the cell probabilities at s (scaled; see _cell_tables).

    Entries telescope to zero.
    """
    return _one_node_tables(s, quantizer, sigma_n)[1]


# ---------------------------------------------------------------------------
# Monte Carlo oracles.  Straight simulations of the channel/quantizer model,
# kept free of the analytic kernels above so the two routes stay independent.
# ---------------------------------------------------------------------------

def _natural_binary(index: int, bits: int) -> np.ndarray:
    """Codeword of `index` as bits, most significant first."""
    return (index >> np.arange(bits - 1, -1, -1)) & 1


def mc_alpha_oracle(power: float, sensor: Sensor, trials: int, seed: int) -> np.ndarray:
    """Empirical symbol confusion matrix from simulated transmissions.

    Column l holds the decoded-level frequencies over `trials` transmissions
    of level l+1: the level index is encoded in natural binary, each bit is
    sent as a BPSK symbol of amplitude sqrt(power / bits) scaled by h_mag,
    real Gaussian noise of std sigma_nu is added, and the sign of each
    received sample decides the bit.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    m = sensor.levels_count
    bits = sensor.bits
    amplitude = sensor.h_mag * math.sqrt(power / bits)
    powers_of_two = 2 ** np.arange(bits - 1, -1, -1)
    counts = np.zeros((m, m), dtype=np.int64)
    for sent in range(m):
        symbols = 1.0 - 2.0 * _natural_binary(sent, bits)  # bit 0 -> +1, bit 1 -> -1
        received = amplitude * symbols + rng.normal(0.0, sensor.sigma_nu, size=(trials, bits))
        decoded_bits = (received <= 0.0).astype(np.int64)
        decoded = decoded_bits @ powers_of_two
        counts[:, sent] = np.bincount(decoded, minlength=m)
    return counts / float(trials)


def mc_beta_oracle(s: float, sensor: Sensor, trials: int, seed: int) -> np.ndarray:
    """Empirical quantizer-cell frequencies of s + Gaussian observation noise.

    Observations are assigned to the nearest level, ties to the higher one.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    quantizer = make_quantizer(sensor.bits, sensor.tau)
    x = s + rng.normal(0.0, sensor.sigma_n, size=trials)
    interior = quantizer.boundaries[1:-1]
    cells = np.searchsorted(interior, x, side="right")
    return np.bincount(cells, minlength=quantizer.m) / float(trials)

