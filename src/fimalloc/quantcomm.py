"""Quantizer, binary encoding, BPSK channel, and their probability kernels.

The uniform quantizer maps an observation to the nearest of M = 2**bits
levels.  The level index is sent as a natural-binary codeword, one BPSK
symbol per bit, over a fading channel with additive Gaussian noise and
coherent detection.  Independent per-bit errors induce a symbol confusion
matrix; the cell probabilities and their slope drive the information
computation downstream.

The confusion matrix and cell-probability kernels here are reconstructions
from that channel model; the Monte Carlo oracles in this module exist to
validate them by simulation rather than by derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfc

from .model import Sensor

_SQRT2 = math.sqrt(2.0)


def _phi(x):
    """Standard normal CDF via erfc (relative accuracy better than 1e-12)."""
    return 0.5 * erfc(-np.asarray(x, dtype=float) / _SQRT2)


def _q_tail(x):
    """Standard normal upper tail Q(x) = 1 - Phi(x)."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / _SQRT2)


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
    """Pairwise Hamming distances of the natural-binary codewords 0..2**bits-1."""
    codes = np.arange(2 ** bits)
    xor = codes[:, None] ^ codes[None, :]
    dist = np.zeros_like(xor)
    while np.any(xor):
        dist += xor & 1
        xor >>= 1
    dist.setflags(write=False)
    return dist


@lru_cache(maxsize=4096)
def _alpha_entries(bits: int, p: float) -> np.ndarray:
    """Confusion probabilities p**d * (1-p)**(L-d) over codeword Hamming distance d.

    Computed once per distance d = 0..L and spread over the matrix by the
    Hamming distances, which is elementwise the same arithmetic.
    """
    d = np.arange(bits + 1)
    with np.errstate(invalid="ignore"):
        entries = (p ** d * (1.0 - p) ** (bits - d))[_hamming_matrix(bits)]
    entries.setflags(write=False)
    return entries


@lru_cache(maxsize=4096)
def _alpha_slope(bits: int, p: float) -> np.ndarray:
    """Elementwise derivative of the confusion entries with respect to p."""
    d = np.arange(bits + 1)
    rising = d * p ** np.maximum(d - 1, 0) * (1.0 - p) ** (bits - d)
    falling = (bits - d) * p ** d * (1.0 - p) ** np.maximum(bits - d - 1, 0)
    slope = (rising - falling)[_hamming_matrix(bits)]
    slope.setflags(write=False)
    return slope


def bit_error_prob(power: float, sensor: Sensor) -> float:
    """Per-bit error probability of coherent BPSK at the given transmit power.

    The power is split evenly over the sensor's `bits` symbols; the
    detection statistic has amplitude h_mag * sqrt(power / bits) against
    noise of std sigma_nu, so p = Q(h_mag * sqrt(power / bits) / sigma_nu).
    Decreasing in power, with p(0) = 1/2.
    """
    if power < 0.0:
        raise ValueError(f"power must be nonnegative, got {power}")
    z = sensor.h_mag * math.sqrt(power / sensor.bits) / sensor.sigma_nu
    return float(_q_tail(z))


def alpha_matrix(power: float, sensor: Sensor) -> np.ndarray:
    """Symbol confusion matrix induced by independent per-bit errors.

    Entry [t, l] is P(decode level t+1 | sent level l+1); the (M, M) matrix
    is symmetric, doubly stochastic and read-only.
    """
    return _alpha_entries(sensor.bits, bit_error_prob(power, sensor))


def _beta_table(s_values: np.ndarray, quantizer: QuantizerSpec, sigma_n: float) -> np.ndarray:
    """Cell probabilities for each s in s_values; shape (len(s), M)."""
    b = quantizer.boundaries
    z = (b[None, :] - s_values[:, None]) / sigma_n
    cdf = np.empty_like(z)
    cdf[:, 0] = 0.0
    cdf[:, -1] = 1.0
    cdf[:, 1:-1] = _phi(z[:, 1:-1])
    return np.diff(cdf, axis=1)


def _beta_dot_table(s_values: np.ndarray, quantizer: QuantizerSpec, sigma_n: float) -> np.ndarray:
    """Scaled slope of the cell probabilities; shape (len(s), M).

    Entry l is exp(-(b_{l-1}-s)^2 / (2 sigma^2)) - exp(-(b_l-s)^2 / (2 sigma^2)),
    which equals sigma * sqrt(2 pi) times the s-derivative of the cell
    probability.  The remaining normalization lives in the information
    prefactor downstream, so it is deliberately not applied here.
    """
    b = quantizer.boundaries
    z = (b[None, :] - s_values[:, None]) / sigma_n
    g = np.zeros_like(z)
    inner = z[:, 1:-1]
    g[:, 1:-1] = np.exp(-0.5 * inner * inner)
    return g[:, :-1] - g[:, 1:]


def beta(s: float, quantizer: QuantizerSpec, sigma_n: float) -> np.ndarray:
    """Probability that the observation s + noise lands in each quantizer cell.

    Entries are nonnegative and sum to one.
    """
    if sigma_n <= 0.0:
        raise ValueError(f"sigma_n must be positive, got {sigma_n}")
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    return _beta_table(np.array([float(s)]), quantizer, sigma_n)[0]


def beta_dot(s: float, quantizer: QuantizerSpec, sigma_n: float) -> np.ndarray:
    """Slope kernel of the cell probabilities at s (scaled; see _beta_dot_table).

    Entries telescope to zero.
    """
    if sigma_n <= 0.0:
        raise ValueError(f"sigma_n must be positive, got {sigma_n}")
    return _beta_dot_table(np.array([float(s)]), quantizer, sigma_n)[0]


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

