"""Statistical scenario: prior, sensors, deployment geometry, file I/O.

A Network bundles a Gaussian prior on the unknown vector with K sensors,
each described by its observation gain, observation noise, channel
magnitude, channel noise, bit budget, and quantizer half-range.  Random
deployments place sensors uniformly in a square field and derive gains
from inverse-distance decay toward two source locations.

Sensor, Geometry and make_prior check their own values: a numeric field
takes a real number (an integer for bits and seed), never a boolean, a
string or None, and a bad value raises ValueError naming the field.  The
generators pass caller values straight through, and the scenario reader
builds each record from its dataclass fields, prefixing the message with
where the record sits, e.g. "sensors[3].sigma_n must be a number".
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
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


def _number(value, name: str) -> float:
    """A real number as a Python float; booleans, strings and None are rejected."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{name} must be finite, got {value!r}") from None


def _numbers(value, name: str) -> np.ndarray:
    """A new float array of numbers nested to any depth, each entry as in _number."""
    entries = np.asarray(value, dtype=object)
    try:
        return np.array([_number(v, name) for v in entries.ravel()]).reshape(entries.shape)
    except ValueError:
        raise ValueError(f"{name} must be an array of numbers, got {value!r}") from None


def _integer(value, name: str) -> int:
    """An integer, or an integral float, as a Python int; booleans are rejected."""
    if isinstance(value, (bool, np.bool_)) or not (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and float(value).is_integer())
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True, eq=False)
class Sensor:
    """One sensor: observation gain and noise, channel, and quantizer range.

    gain      length-q observation gain vector
    sigma_n   observation noise standard deviation (> 0)
    h_mag     channel fading magnitude (> 0)
    sigma_nu  channel noise std per real dimension (> 0)
    bits      codeword length, an integer from 1 to MAX_BITS, so the quantizer has
              2**bits levels; integral floats and numpy integers are stored as int
    tau       quantizer half-range (> 0)

    The four physical fields are stored as Python floats and gain as a
    read-only float vector; booleans, strings and None are rejected.
    Sensors compare and hash by value (gain by its bytes, so -0.0 and 0.0
    differ): equal sensors are twins, with equal t and t' at every power.
    """

    gain: np.ndarray
    sigma_n: float
    h_mag: float
    sigma_nu: float
    bits: int
    tau: float

    def __post_init__(self):
        gain = _numbers(self.gain, "gain")  # a new array: freezing it leaves the caller's alone
        if gain.ndim != 1:
            raise DimensionMismatch(f"gain must be a vector, got shape {gain.shape}")
        if not np.all(np.isfinite(gain)):
            raise ValueError(f"gain must be finite, got {gain}")
        gain.setflags(write=False)
        object.__setattr__(self, "gain", gain)
        bits = _integer(self.bits, "bits")
        if not 1 <= bits <= MAX_BITS:
            raise ValueError(f"bits must be in [1, {MAX_BITS}], got {bits}")
        object.__setattr__(self, "bits", bits)
        for name in ("sigma_n", "h_mag", "sigma_nu", "tau"):
            value = _number(getattr(self, name), name)
            if not (value > 0.0) or not math.isfinite(value):
                raise ValueError(f"{name} must be positive and finite, got {value}")
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return (self.gain.tobytes(), self.sigma_n, self.h_mag, self.sigma_nu, self.bits, self.tau)

    def __eq__(self, other):
        return isinstance(other, Sensor) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def levels_count(self) -> int:
        return 2 ** self.bits


@dataclass(frozen=True)
class Geometry:
    """Deployment metadata; carried along so scenario files round-trip.

    Stores seed as an int, the three scalars as Python floats and the
    positions as read-only float arrays, with the same value rules as Sensor.
    """

    seed: int
    field_half_width: float
    source_positions: np.ndarray   # (2, 2)
    sensor_positions: np.ndarray   # (K, 2)
    decay_exponent: float
    d_min: float

    def __post_init__(self):
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        for name in ("field_half_width", "decay_exponent", "d_min"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        for name in ("source_positions", "sensor_positions"):
            positions = _numbers(getattr(self, name), name)
            positions.setflags(write=False)
            object.__setattr__(self, name, positions)


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
    cov = _numbers(covariance, "covariance")
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
    A bad gain or sigma_n raises ValueError naming it, as in Sensor.
    """
    a = _numbers(gain, "gain")
    if a.shape != (prior.q,):
        raise DimensionMismatch(
            f"gain has dimension {a.shape}, prior covariance is {prior.q}x{prior.q}"
        )
    sigma_n = _number(sigma_n, "sigma_n")
    return 3.0 * math.sqrt(sigma_n ** 2 + float(a @ prior.covariance @ a))


def _per_sensor(value, k: int, name: str) -> np.ndarray:
    """Length-k object array, so Sensor sees and checks each caller value unconverted."""
    arr = np.asarray(value, dtype=object)
    if arr.ndim == 0:
        return np.full(k, arr[()], dtype=object)
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
    field_half_width = _number(field_half_width, "field_half_width")
    decay_exponent = _number(decay_exponent, "decay_exponent")
    d_min = _number(d_min, "d_min")
    if d_min <= 0.0:
        raise ValueError(f"d_min must be positive, got {d_min}")
    prior = make_prior(DEFAULT_COVARIANCE)
    sources = _default_sources()
    if np.any(np.abs(sources) > field_half_width + 1e-12):
        raise ValueError("sources must lie inside or on the field")

    sig_n = _per_sensor(sigma_n, k, "sigma_n")
    sig_nu = _per_sensor(sigma_nu, k, "sigma_nu")
    h = _per_sensor(h_mag, k, "h_mag")
    bits_arr = _per_sensor(bits, k, "bits")

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
            Sensor(gain=gain, sigma_n=sig_n[i], h_mag=h[i], sigma_nu=sig_nu[i],
                   bits=bits_arr[i], tau=tau)
        )
    geometry = Geometry(
        seed=seed,
        field_half_width=field_half_width,
        source_positions=sources,
        sensor_positions=positions,
        decay_exponent=decay_exponent,
        d_min=d_min,
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
    tau = make_tau(gain, sigma_n, prior)
    sensor = Sensor(
        gain=gain, sigma_n=sigma_n, h_mag=h_mag, sigma_nu=sigma_nu, bits=bits, tau=tau
    )
    return Network(sensors=(sensor,) * k, prior=prior)


# ---------------------------------------------------------------------------
# Scenario files: UTF-8 JSON, strict schema, full round-trip precision.
# ---------------------------------------------------------------------------

_TOP_KEYS = {"version", "prior", "sensors", "geometry"}


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ParseError(f'missing field "{key}" in {where}')
    return mapping[key]


def _reject_unknown(mapping: dict, allowed: set, where: str):
    unknown = set(mapping) - allowed
    if unknown:
        name = sorted(unknown)[0]
        raise ParseError(f'unknown field "{name}" in {where}')


def _to_dict(record) -> dict:
    """A Sensor or Geometry as a JSON object, one key per dataclass field."""
    values = {f.name: getattr(record, f.name) for f in fields(record)}
    return {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in values.items()}


def _from_dict(cls, entry, where: str):
    """Build a Sensor or Geometry from its JSON object; errors name where.field."""
    if not isinstance(entry, dict):
        raise ParseError(f"{where} must be an object")
    names = [f.name for f in fields(cls)]
    _reject_unknown(entry, set(names), where)
    for name in names:
        _require(entry, name, where)
    try:
        return cls(**entry)
    except (ValueError, TypeError, DimensionMismatch) as exc:
        raise ParseError(f"{where}.{exc}") from exc


def network_to_dict(network: Network) -> dict:
    """Plain-dict form of a Network, the scenario file's JSON payload."""
    payload = {
        "version": SCHEMA_VERSION,
        "prior": {"covariance": network.prior.covariance.tolist()},
        "sensors": [_to_dict(s) for s in network.sensors],
    }
    if network.geometry is not None:
        payload["geometry"] = _to_dict(network.geometry)
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
    except (ValueError, TypeError, DimensionMismatch) as exc:
        raise ParseError(f"prior.{exc}") from exc

    sensors_obj = _require(payload, "sensors", "scenario")
    if not isinstance(sensors_obj, list) or not sensors_obj:
        raise ParseError('field "sensors" must be a non-empty array')
    sensors = tuple(_from_dict(Sensor, entry, f"sensors[{i}]")
                    for i, entry in enumerate(sensors_obj))
    geometry = None
    if "geometry" in payload:
        geometry = _from_dict(Geometry, payload["geometry"], "geometry")
    return Network(sensors=sensors, prior=prior, geometry=geometry)


def save_scenario(network: Network, path) -> None:
    """Write the canonical JSON serialization (sorted keys, 2-space indent)."""
    text = json.dumps(network_to_dict(network), indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_scenario(path) -> Network:
    """Read and validate a scenario file written by save_scenario.

    Text that is not UTF-8 JSON, or nests too deeply to parse, raises ParseError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"scenario is not UTF-8 text: {exc}") from exc
        except RecursionError as exc:
            raise ParseError("scenario nests arrays or objects too deeply to parse") from exc
    return network_from_dict(payload)
