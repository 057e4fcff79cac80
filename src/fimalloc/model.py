"""Statistical scenario: prior, sensors, deployment geometry, file I/O.

A Network bundles a Gaussian prior on the unknown vector with K sensors,
each described by its observation gain, observation noise, channel
magnitude, channel noise, bit budget, and quantizer half-range.  Random
deployments place sensors uniformly in a square field and derive gains
from inverse-distance decay toward two source locations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    InfeasibleGeometry,
    NotPositiveDefinite,
    NotSymmetric,
    ParseError,
    SchemaVersionMismatch,
)

SCHEMA_VERSION = 1

# Default scenario parameters used by the CLI and the test harness.
DEFAULT_COVARIANCE = ((4.0, 0.5), (0.5, 0.25))
DEFAULT_GAIN = (0.6, 0.8)
DEFAULT_SIGMA_N = 1.0
DEFAULT_SIGMA_NU = 1.0
DEFAULT_H_MAG = 0.7
DEFAULT_BITS = 3
# Largest codeword length a Sensor accepts.  The quadrature node tables grow
# about 4x per bit: one t at bits=8 peaks near 620 MB, and bits=10 was killed
# for lack of memory on an 8 GB host.
MAX_BITS = 8
DEFAULT_DECAY_EXPONENT = 2.0
DEFAULT_FIELD_HALF_WIDTH = 1.0
DEFAULT_D_MIN = 0.1

_SPD_RTOL = 1e-12


@dataclass(frozen=True)
class Prior:
    """Zero-mean Gaussian prior: covariance, its inverse, and the inverse trace."""

    covariance: np.ndarray
    inverse: np.ndarray
    inverse_trace: float

    @property
    def q(self) -> int:
        return self.covariance.shape[0]


def _is_bool(value) -> bool:
    return isinstance(value, (bool, np.bool_))


@dataclass(frozen=True)
class Sensor:
    """One sensor: observation gain and noise, channel, and quantizer range.

    gain      length-q observation gain vector
    sigma_n   observation noise standard deviation (> 0)
    h_mag     channel fading magnitude (> 0)
    sigma_nu  channel noise std per real dimension (> 0)
    bits      codeword length, an integer from 1 to MAX_BITS, so the quantizer has
              2**bits levels; integral floats and numpy integers are stored as int
    tau       quantizer half-range (> 0)

    Booleans are rejected wherever a number is expected.
    """

    gain: np.ndarray
    sigma_n: float
    h_mag: float
    sigma_nu: float
    bits: int
    tau: float

    def __post_init__(self):
        if any(_is_bool(v) for v in np.ravel(np.asarray(self.gain, dtype=object))):
            raise ValueError(f"gain entries must be numbers, got {self.gain!r}")
        gain = np.array(self.gain, dtype=float)  # copy, then freeze our copy
        if gain.ndim != 1:
            raise DimensionMismatch(f"gain must be a vector, got shape {gain.shape}")
        if not np.all(np.isfinite(gain)):
            raise ValueError(f"gain must be finite, got {gain}")
        gain.setflags(write=False)
        object.__setattr__(self, "gain", gain)
        bits = self.bits
        if _is_bool(bits) or not (
            isinstance(bits, (int, np.integer))
            or (isinstance(bits, (float, np.floating)) and float(bits).is_integer())
        ):
            raise ValueError(f"bits must be an integer, got {bits!r}")
        if not 1 <= bits <= MAX_BITS:
            raise ValueError(f"bits must be in [1, {MAX_BITS}], got {bits}")
        object.__setattr__(self, "bits", int(bits))
        for name in ("sigma_n", "h_mag", "sigma_nu", "tau"):
            value = getattr(self, name)
            if _is_bool(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not (value > 0.0) or not math.isfinite(value):
                raise ValueError(f"{name} must be positive and finite, got {value}")

    @property
    def levels_count(self) -> int:
        return 2 ** self.bits


@dataclass(frozen=True)
class Geometry:
    """Deployment metadata; carried along so scenario files round-trip."""

    seed: int
    field_half_width: float
    source_positions: np.ndarray   # (2, 2)
    sensor_positions: np.ndarray   # (K, 2)
    decay_exponent: float
    d_min: float


@dataclass(frozen=True)
class Network:
    """Ordered sensors plus the shared prior, with optional deployment metadata."""

    sensors: tuple
    prior: Prior
    geometry: Optional[Geometry] = None

    def __post_init__(self):
        if len(self.sensors) < 1:
            raise ValueError("a network needs at least one sensor")
        q = self.prior.q
        for i, sensor in enumerate(self.sensors):
            if sensor.gain.shape != (q,):
                raise DimensionMismatch(
                    f"sensor {i} gain has dimension {sensor.gain.shape[0]}, prior has q={q}"
                )

    @property
    def k(self) -> int:
        return len(self.sensors)

    @property
    def seed(self) -> Optional[int]:
        return self.geometry.seed if self.geometry is not None else None


def make_prior(covariance) -> Prior:
    """Build a Prior from a covariance matrix, rejecting non-SPD input.

    Symmetry is checked elementwise; positive definiteness via the symmetric
    eigendecomposition with relative tolerance 1e-12 on the smallest
    eigenvalue.
    """
    cov = np.array(covariance, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DimensionMismatch(f"covariance must be square, got shape {cov.shape}")
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance has non-finite entries")
    scale = np.max(np.abs(cov))
    if scale == 0.0:
        raise NotPositiveDefinite("covariance is identically zero")
    if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12 * scale):
        raise NotSymmetric("covariance is not symmetric")
    cov = 0.5 * (cov + cov.T)
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals[0] <= _SPD_RTOL * eigvals[-1]:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {eigvals[0]:.3e} is at or below tolerance "
            f"{_SPD_RTOL * eigvals[-1]:.3e}"
        )
    inverse = np.linalg.inv(cov)
    inverse = 0.5 * (inverse + inverse.T)
    cov.setflags(write=False)
    inverse.setflags(write=False)
    return Prior(covariance=cov, inverse=inverse, inverse_trace=float(np.trace(inverse)))


def make_tau(gain, sigma_n: float, prior: Prior) -> float:
    """Quantizer half-range: 3 * sqrt(sigma_n^2 + gain' C gain).

    Three standard deviations of the observation, so clipping is negligible.
    """
    a = np.asarray(gain, dtype=float)
    if a.shape != (prior.q,):
        raise DimensionMismatch(
            f"gain has dimension {a.shape}, prior covariance is {prior.q}x{prior.q}"
        )
    return 3.0 * math.sqrt(sigma_n ** 2 + float(a @ prior.covariance @ a))


def _per_sensor(value, k: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(k, float(arr))
    if arr.shape != (k,):
        raise DimensionMismatch(f"{name} must be scalar or length-{k}, got shape {arr.shape}")
    return arr


def _default_sources() -> np.ndarray:
    # Unit-circle sources at polar angles 45 and 225 degrees, so both sit
    # at distance 1 from the origin.
    r = math.sqrt(0.5)
    return np.array([[r, r], [-r, -r]])


def generate_deployment(
    seed: int,
    k: int,
    *,
    field_half_width: float = DEFAULT_FIELD_HALF_WIDTH,
    decay_exponent: float = DEFAULT_DECAY_EXPONENT,
    d_min: float = DEFAULT_D_MIN,
    sigma_n=DEFAULT_SIGMA_N,
    sigma_nu=DEFAULT_SIGMA_NU,
    h_mag=DEFAULT_H_MAG,
    bits: Union[int, Sequence[int]] = DEFAULT_BITS,
) -> Network:
    """Place k sensors uniformly in the square field and derive their gains.

    Sensor positions are drawn uniformly on [-field_half_width,
    +field_half_width]^2 with numpy's seeded PCG64 generator; draws closer
    than d_min to either source are re-drawn, with a total re-draw budget
    of 10*k.  Gain component i is (d_0i / d_ki) ** decay_exponent where
    d_0i is the distance of source i from the origin and d_ki the distance
    from the sensor to source i.  Each sensor's quantizer half-range comes
    from make_tau.

    Raises InfeasibleGeometry when the re-draw budget runs out.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if d_min <= 0.0:
        raise ValueError(f"d_min must be positive, got {d_min}")
    prior = make_prior(DEFAULT_COVARIANCE)
    sources = _default_sources()
    if np.any(np.abs(sources) > field_half_width + 1e-12):
        raise ValueError("sources must lie inside or on the field")

    sig_n = _per_sensor(sigma_n, k, "sigma_n")
    sig_nu = _per_sensor(sigma_nu, k, "sigma_nu")
    h = _per_sensor(h_mag, k, "h_mag")
    bits_arr = np.asarray(bits, dtype=object)  # object keeps True and 3.7 for Sensor to reject
    if bits_arr.ndim == 0:
        bits_arr = np.full(k, bits_arr[()], dtype=object)
    elif bits_arr.shape != (k,):
        raise DimensionMismatch(f"bits must be scalar or length-{k}")

    rng = np.random.default_rng(seed)
    d_origin = np.linalg.norm(sources, axis=1)
    positions = np.empty((k, 2))
    redraws_left = 10 * k
    for i in range(k):
        while True:
            pos = rng.uniform(-field_half_width, field_half_width, size=2)
            dist = np.linalg.norm(sources - pos, axis=1)
            if np.all(dist >= d_min):
                positions[i] = pos
                break
            redraws_left -= 1
            if redraws_left < 0:
                raise InfeasibleGeometry(
                    f"exhausted {10 * k} re-draws placing sensors at least "
                    f"{d_min} from the sources"
                )

    sensors = []
    for i in range(k):
        dist = np.linalg.norm(sources - positions[i], axis=1)
        gain = (d_origin / dist) ** decay_exponent
        tau = make_tau(gain, sig_n[i], prior)
        sensors.append(
            Sensor(
                gain=gain,
                sigma_n=float(sig_n[i]),
                h_mag=float(h[i]),
                sigma_nu=float(sig_nu[i]),
                bits=bits_arr[i],
                tau=tau,
            )
        )
    positions.setflags(write=False)
    sources.setflags(write=False)
    geometry = Geometry(
        seed=int(seed),
        field_half_width=float(field_half_width),
        source_positions=sources,
        sensor_positions=positions,
        decay_exponent=float(decay_exponent),
        d_min=float(d_min),
    )
    return Network(sensors=tuple(sensors), prior=prior, geometry=geometry)


def homogeneous_network(
    k: int,
    gain=DEFAULT_GAIN,
    *,
    sigma_n: float = DEFAULT_SIGMA_N,
    sigma_nu: float = DEFAULT_SIGMA_NU,
    h_mag: float = DEFAULT_H_MAG,
    bits: int = DEFAULT_BITS,
) -> Network:
    """Network of k identical sensors sharing one gain vector (no geometry)."""
    prior = make_prior(DEFAULT_COVARIANCE)
    gain = np.asarray(gain, dtype=float)
    tau = make_tau(gain, sigma_n, prior)
    sensor = Sensor(
        gain=gain, sigma_n=sigma_n, h_mag=h_mag, sigma_nu=sigma_nu, bits=bits, tau=tau
    )
    return Network(sensors=(sensor,) * k, prior=prior)


# ---------------------------------------------------------------------------
# Scenario files: UTF-8 JSON, strict schema, full round-trip precision.
# ---------------------------------------------------------------------------

_SENSOR_KEYS = {"gain", "sigma_n", "h_mag", "sigma_nu", "bits", "tau"}
_GEOMETRY_KEYS = {
    "seed",
    "field_half_width",
    "source_positions",
    "sensor_positions",
    "decay_exponent",
    "d_min",
}
_TOP_KEYS = {"version", "prior", "sensors", "geometry"}


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ParseError(f'missing field "{key}" in {where}')
    return mapping[key]


def _require_integer(mapping: dict, key: str, where: str) -> int:
    """An integer field; JSON booleans and fractional numbers are rejected."""
    value = _require(mapping, key, where)
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ParseError(f"{where}.{key} must be an integer, got {value!r}")
    return int(value)


def _require_number(mapping: dict, key: str, where: str) -> float:
    """A real-number field; JSON booleans, strings and null are rejected."""
    value = _require(mapping, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}.{key} must be a number, got {value!r}")
    return float(value)


def _require_numbers(mapping: dict, key: str, where: str) -> np.ndarray:
    """An array-of-numbers field, as a float vector; each entry as in _require_number."""
    value = _require(mapping, key, where)
    if not isinstance(value, list) or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in value
    ):
        raise ParseError(f"{where}.{key} must be an array of numbers, got {value!r}")
    return np.asarray(value, dtype=float)


def _reject_unknown(mapping: dict, allowed: set, where: str):
    unknown = set(mapping) - allowed
    if unknown:
        name = sorted(unknown)[0]
        raise ParseError(f'unknown field "{name}" in {where}')


def network_to_dict(network: Network) -> dict:
    """Plain-dict form of a Network, the scenario file's JSON payload."""
    payload = {
        "version": SCHEMA_VERSION,
        "prior": {"covariance": network.prior.covariance.tolist()},
        "sensors": [
            {
                "gain": s.gain.tolist(),
                "sigma_n": float(s.sigma_n),
                "h_mag": float(s.h_mag),
                "sigma_nu": float(s.sigma_nu),
                "bits": int(s.bits),
                "tau": float(s.tau),
            }
            for s in network.sensors
        ],
    }
    if network.geometry is not None:
        g = network.geometry
        payload["geometry"] = {
            "seed": g.seed,
            "field_half_width": g.field_half_width,
            "source_positions": g.source_positions.tolist(),
            "sensor_positions": g.sensor_positions.tolist(),
            "decay_exponent": g.decay_exponent,
            "d_min": g.d_min,
        }
    return payload


def network_from_dict(payload: dict) -> Network:
    """Inverse of network_to_dict, with strict field validation."""
    if not isinstance(payload, dict):
        raise ParseError("scenario root must be a JSON object")
    _reject_unknown(payload, _TOP_KEYS, "scenario")
    version = _require(payload, "version", "scenario")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"scenario declares version {version}, this build reads version {SCHEMA_VERSION}"
        )
    prior_obj = _require(payload, "prior", "scenario")
    if not isinstance(prior_obj, dict):
        raise ParseError('field "prior" must be an object')
    _reject_unknown(prior_obj, {"covariance"}, "prior")
    try:
        prior = make_prior(_require(prior_obj, "covariance", "prior"))
    except (ValueError, TypeError) as exc:
        raise ParseError(f"prior.covariance: {exc}") from exc

    sensors_obj = _require(payload, "sensors", "scenario")
    if not isinstance(sensors_obj, list) or not sensors_obj:
        raise ParseError('field "sensors" must be a non-empty array')
    sensors = []
    for i, entry in enumerate(sensors_obj):
        where = f"sensors[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where} must be an object")
        _reject_unknown(entry, _SENSOR_KEYS, where)
        try:
            sensors.append(
                Sensor(
                    gain=_require_numbers(entry, "gain", where),
                    sigma_n=_require_number(entry, "sigma_n", where),
                    h_mag=_require_number(entry, "h_mag", where),
                    sigma_nu=_require_number(entry, "sigma_nu", where),
                    bits=_require_integer(entry, "bits", where),
                    tau=_require_number(entry, "tau", where),
                )
            )
        except (ValueError, TypeError) as exc:
            raise ParseError(f"{where}: {exc}") from exc

    geometry = None
    if "geometry" in payload:
        g = payload["geometry"]
        if not isinstance(g, dict):
            raise ParseError('field "geometry" must be an object')
        _reject_unknown(g, _GEOMETRY_KEYS, "geometry")
        try:
            sources = np.array(_require(g, "source_positions", "geometry"), dtype=float)
            positions = np.array(_require(g, "sensor_positions", "geometry"), dtype=float)
            sources.setflags(write=False)
            positions.setflags(write=False)
            geometry = Geometry(
                seed=_require_integer(g, "seed", "geometry"),
                field_half_width=float(_require(g, "field_half_width", "geometry")),
                source_positions=sources,
                sensor_positions=positions,
                decay_exponent=float(_require(g, "decay_exponent", "geometry")),
                d_min=float(_require(g, "d_min", "geometry")),
            )
        except (ValueError, TypeError) as exc:
            raise ParseError(f"geometry: {exc}") from exc
    return Network(sensors=tuple(sensors), prior=prior, geometry=geometry)


def save_scenario(network: Network, path) -> None:
    """Write the canonical JSON serialization (sorted keys, 2-space indent)."""
    text = json.dumps(network_to_dict(network), indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_scenario(path) -> Network:
    """Read and validate a scenario file written by save_scenario."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return network_from_dict(payload)
