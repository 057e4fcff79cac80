"""Statistical scenario: prior, sensors, deployment geometry, file I/O.

A Network bundles a Gaussian prior on the unknown vector with K sensors,
each described by its observation gain, observation noise, channel
magnitude, channel noise, bit budget, and quantizer half-range.  Random
deployments place sensors uniformly in a square field and derive gains
from inverse-distance decay toward two source locations.

Each field's rule (type, sign, finiteness, range, shape; never a boolean,
string or None) is stated once, in the table _RULES, which _checked applies
for Sensor, Geometry, Network, make_prior, make_tau and both generators: a
bad value raises ValueError naming the field, DimensionMismatch for a wrong
shape.  Network matches each gain to the prior's q, with gain' C gain
finite, keeps each sigma_n ** 2 nonzero and the kernel prefactor finite,
keeps tau / sigma_n and sqrt(gain' C gain) / sigma_n, times 2**bits, at
most MAX_RESOLUTION, and matches the sensor positions to the sensor count.
A gain' C gain out of range names prior.covariance where the gain alone,
under the identity covariance, would be in range, and the gain otherwise.
The scenario reader raises every failure as a ParseError naming where the
field sits, e.g. "sensors[3].sigma_n must be a number".
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
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
# Largest 2**bits * tau / sigma_n, and 2**bits * sqrt(gain' C gain) / sigma_n,
# a sensor may have.  The quadrature's panels near the quantizer boundaries
# are 6 sigma_n wide, so a kernel's nodes grow with tau / sigma_n (up to the
# density's reach, 8.5 sqrt(gain' C gain)), and its tables with that times
# 2**bits.  At the bound, with the gain scaled so that make_tau gives the
# tau, a flagged checked t, which builds the kernel and its split-2 one,
# peaks 66 MB above the 32 MB before it at bits=3 and tau / sigma_n =
# 16,384 (23,620 Gauss nodes; 27 MB for the kernel alone), and 829 MB above
# it at bits=8 and tau / sigma_n = 512 (334 MB alone), by
# resource.getrusage in a fresh process.  Golden's largest is 919.  Far
# past the bound, z^2 overflows in the cell tables, and a large
# sqrt(gain' C gain) makes the panel layout drop every edge near 0 and
# refine the whole support.
MAX_RESOLUTION = 2 ** 17
DEFAULT_DECAY_EXPONENT = 2.0
DEFAULT_FIELD_HALF_WIDTH = 1.0
DEFAULT_D_MIN = 0.1

_SPD_RTOL = 1e-12


class _ValueRecord:
    """Compares and hashes by its fields' values, arrays by their bytes (so -0.0 and
    0.0 differ); a frozen dataclass with eq=False inherits both.  The key is taken
    once, on first use: the fields are frozen and the arrays read-only."""

    @cached_property
    def _key(self) -> tuple:
        return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in vars(self).values())

    def __eq__(self, other):
        return type(other) is type(self) and self._key == other._key

    def __hash__(self):
        return hash(self._key)


@dataclass(frozen=True, eq=False)
class Prior(_ValueRecord):
    """Zero-mean Gaussian prior: covariance, its inverse, and the inverse trace.

    Priors compare and hash by value, as Sensor and Geometry do, so networks
    compare and hash by value; make_prior's inverse and trace follow from
    the covariance, so equal covariances make equal priors.
    """

    covariance: np.ndarray
    inverse: np.ndarray
    inverse_trace: float

    @property
    def q(self) -> int:
        return self.covariance.shape[0]


def _number(value, name: str, rule: str = "") -> float:
    """A real number as a Python float; booleans, strings and None are rejected.

    rule "finite" requires it finite, and "positive and finite" positive too.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{name} must be finite, got {value!r}") from None
    if rule and not (math.isfinite(number) and (rule == "finite" or number > 0.0)):
        raise ValueError(f"{name} must be {rule}, got {number}")
    return number


def _integer(value, name: str, low: Optional[int] = None, high: Optional[int] = None) -> int:
    """An integer, or an integral float, as a Python int in [low, high]; booleans are rejected."""
    if isinstance(value, (bool, np.bool_)) or not (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and float(value).is_integer())
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if (low is not None and value < low) or (high is not None and value > high):
        rule = f"in [{low}, {high}]" if high is not None else "nonnegative" if low == 0 else f">= {low}"
        raise ValueError(f"{name} must be {rule}, got {value}")
    return value


def _array(value, name: str, shape: tuple) -> np.ndarray:
    """A new read-only float array of finite numbers, as in _number, in the given
    shape; a letter in shape stands for any length, the same wherever it recurs.
    """
    entries = np.asarray(value, dtype=object)
    try:  # a new array: freezing it leaves the caller's alone
        array = np.array([_number(v, name) for v in entries.ravel()]).reshape(entries.shape)
    except ValueError:
        raise ValueError(f"{name} must be an array of numbers, got {value!r}") from None
    lengths = dict(zip(shape, array.shape))  # each letter's length, where it last occurs
    if array.shape != tuple(lengths.get(s) if isinstance(s, str) else s for s in shape):
        rule = "be a vector" if len(shape) == 1 else "have shape " + str(shape).replace("'", "")
        raise DimensionMismatch(f"{name} must {rule}, got {array.shape}")
    if not np.isfinite(array).all():
        at = np.argwhere(~np.isfinite(array))[0].tolist()
        raise ValueError(f"{name} must be finite, got {array[tuple(at)]} at {at}")
    array.setflags(write=False)
    return array


# The rule of every scenario field, by name: its type, sign, finiteness,
# range and shape.  Sensor's fields come first, then Geometry's, then the
# prior's covariance and the sensor count k.  In a shape, q is the prior's
# dimension and K the sensor count, which Network matches across records.
_POSITIVE = partial(_number, rule="positive and finite")
_RULES = {
    "gain": partial(_array, shape=("q",)),
    "sigma_n": _POSITIVE,
    "h_mag": _POSITIVE,
    "sigma_nu": _POSITIVE,
    "bits": partial(_integer, low=1, high=MAX_BITS),
    "tau": _POSITIVE,
    "seed": partial(_integer, low=0),
    "field_half_width": _POSITIVE,
    "source_positions": partial(_array, shape=(2, 2)),
    "sensor_positions": partial(_array, shape=("K", 2)),
    "decay_exponent": partial(_number, rule="finite"),
    "d_min": _POSITIVE,
    "covariance": partial(_array, shape=("q", "q")),
    "k": partial(_integer, low=1),
}


def _checked(**values) -> dict:
    """Each value as its field's rule in _RULES reads it; a bad one raises naming the field."""
    return {name: _RULES[name](value, name) for name, value in values.items()}


def _gain_form(gain: np.ndarray, prior: Prior, where: str) -> float:
    """gain' C gain for a checked gain, which must match the prior's q and keep it finite.

    where names the record that holds the gain, e.g. "sensors[3]", or is ""
    for a bare gain.  An infinite form is blamed as `_form_culprit` says.
    """
    if gain.shape != (prior.q,):
        raise DimensionMismatch(f"{where + '.' if where else ''}gain has dimension "
                                f"{gain.shape[0]}, prior has q={prior.q}")
    with np.errstate(over="ignore", invalid="ignore"):
        form = float(gain @ prior.covariance @ gain)
    if not math.isfinite(form):
        raise ValueError(f"{_form_culprit(gain, math.isfinite, where)} must keep gain' C gain "
                         f"finite, got {form}")
    return form


def _form_culprit(gain: np.ndarray, passes, where: str) -> str:
    """The field to name when gain' C gain fails a test: the gain's, where gain' gain
    (the form under the identity covariance) fails passes too, else prior.covariance."""
    with np.errstate(over="ignore", invalid="ignore"):
        alone = float(gain @ gain)
    if not passes(alone):
        return f"{where}.gain" if where else "gain"
    return f"prior.covariance, for {where or 'the gain'},"


def _noise_variance(gain: np.ndarray, sigma_n: float, where: str) -> float:
    """sigma_n ** 2 for a checked gain and sigma_n: finite and nonzero, with the
    information kernel's prefactor gain'gain / (2 pi sigma_n ** 2) finite."""
    try:  # Python floats raise where sigma_n ** 2 overflows, or underflows to 0 and divides
        variance = sigma_n ** 2
        with np.errstate(over="ignore"):
            if float(gain @ gain) / (2.0 * math.pi * variance) < math.inf:
                return variance
    except (OverflowError, ZeroDivisionError):
        pass
    raise ValueError(f"{where} must be such that sigma_n ** 2 is finite and nonzero and "
                     f"gain'gain / (2 pi sigma_n ** 2) is finite, got {sigma_n}")


def _check_resolution(sensor, form: float, where: str) -> None:
    """Reject a checked sensor whose tau, or sqrt(form) with form = gain' C gain,
    over sigma_n and times 2**bits passes MAX_RESOLUTION, naming the field:
    sigma_n where the same test passes at DEFAULT_SIGMA_N, else tau, or for the
    form what `_form_culprit` says."""
    def resolution(scale: float, sigma_n: float = sensor.sigma_n) -> float:
        return 2 ** sensor.bits * scale / sigma_n

    for name, what, scale in (("tau", "tau", sensor.tau),
                              ("gain", "sqrt(gain' C gain)", math.sqrt(form))):
        value = resolution(scale)
        if value > MAX_RESOLUTION:
            if resolution(scale, DEFAULT_SIGMA_N) <= MAX_RESOLUTION:
                field = f"{where}.sigma_n"
            elif name == "tau":
                field = f"{where}.tau"
            else:
                field = _form_culprit(
                    sensor.gain, lambda alone: resolution(math.sqrt(alone)) <= MAX_RESOLUTION,
                    where)
            raise ValueError(f"{field} must keep 2**bits * {what} / sigma_n at most "
                             f"{MAX_RESOLUTION}, got {value:.6g}")


def _sensor_form(sensor, prior: Prior, where: str) -> float:
    """gain' C gain for a checked sensor under prior, after every check that pairs the two:
    `_gain_form`, `_noise_variance` and `_check_resolution`, each naming a field of
    where, e.g. "sensors[3]"."""
    form = _gain_form(sensor.gain, prior, where)
    _noise_variance(sensor.gain, sensor.sigma_n, f"{where}.sigma_n")
    _check_resolution(sensor, form, where)
    return form


def _check_fields(record) -> None:
    """Store every field of a frozen Sensor or Geometry as its rule reads it."""
    for name, value in _checked(**vars(record)).items():
        object.__setattr__(record, name, value)


def _check_link(sensor) -> None:
    """Reject a checked sensor whose (h_mag / sigma_nu) ** 2, the link SNR scale of
    t' at zero power, is not finite, naming the field: sigma_nu where the square
    is finite at DEFAULT_SIGMA_NU, else h_mag."""
    # Products, which overflow to inf where a float's ** 2 raises.
    squares = [(sensor.h_mag / s) * (sensor.h_mag / s) for s in (sensor.sigma_nu, DEFAULT_SIGMA_NU)]
    if not math.isfinite(squares[0]):
        culprit = "sigma_nu" if math.isfinite(squares[1]) else "h_mag"
        raise ValueError(f"{culprit} must keep (h_mag / sigma_nu) ** 2 finite, got h_mag "
                         f"{sensor.h_mag} and sigma_nu {sensor.sigma_nu}")


@dataclass(frozen=True, eq=False)
class Sensor(_ValueRecord):
    """One sensor: observation gain and noise, channel, and quantizer range.

    gain      length-q observation gain vector
    sigma_n   observation noise standard deviation (> 0)
    h_mag     channel fading magnitude (> 0)
    sigma_nu  channel noise std per real dimension (> 0)
    bits      codeword length, an integer from 1 to MAX_BITS, so the quantizer has
              2**bits levels; integral floats and numpy integers are stored as int
    tau       quantizer half-range (> 0)

    The four physical fields are stored as Python floats and gain as a
    read-only float vector; booleans, strings and None are rejected, and so
    is a link whose (h_mag / sigma_nu) ** 2 overflows.  Sensors compare and
    hash by value (gain by its bytes, so -0.0 and 0.0 differ): equal
    sensors are twins, with equal t and t' at every power.
    """

    gain: np.ndarray
    sigma_n: float
    h_mag: float
    sigma_nu: float
    bits: int
    tau: float

    def __post_init__(self):
        _check_fields(self)
        _check_link(self)

    @property
    def levels_count(self) -> int:
        return 2 ** self.bits


@dataclass(frozen=True, eq=False)
class Geometry(_ValueRecord):
    """Deployment metadata; carried along so scenario files round-trip.

    Stores seed as an int, the three scalars as Python floats and the
    positions as read-only float arrays, with the same value rules as
    Sensor, and compares and hashes by value as Sensor does.
    The fields take the rules generate_deployment applies before it uses
    them: seed nonnegative, field_half_width and d_min positive and finite,
    decay_exponent finite, two finite sources inside or on the field, and K
    finite sensor positions; Network checks that K is its sensor count.
    """

    seed: int
    field_half_width: float
    source_positions: np.ndarray   # (2, 2)
    sensor_positions: np.ndarray   # (K, 2)
    decay_exponent: float
    d_min: float

    def __post_init__(self):
        _check_fields(self)
        if np.any(np.abs(self.source_positions) > self.field_half_width + 1e-12):
            raise ValueError("source_positions must be inside or on the field")


@dataclass(frozen=True)
class Network:
    """Ordered sensors plus the shared prior, with optional deployment metadata.

    Networks compare and hash by value.  A network also owns its sensors'
    information kernels (fisher._kernels fills `_kernels`, one per distinct
    sensor, on first use), which it keeps while it lives and which take no
    part in comparison.
    """

    sensors: tuple
    prior: Prior
    geometry: Optional[Geometry] = None
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _checked(k=self.k)
        for i, sensor in enumerate(self.sensors):
            _sensor_form(sensor, self.prior, f"sensors[{i}]")
        rows = self.k if self.geometry is None else self.geometry.sensor_positions.shape[0]
        if rows != self.k:
            raise DimensionMismatch(f"geometry.sensor_positions has {rows} rows for {self.k} sensors")

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
    cov = _checked(covariance=covariance)["covariance"]
    scale = np.max(np.abs(cov))
    if scale == 0.0:
        raise NotPositiveDefinite("covariance is identically zero")
    if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12 * scale):
        raise NotSymmetric("covariance is not symmetric")
    # Halving first is exact and cannot overflow, as halving the sum can.
    cov = 0.5 * cov + 0.5 * cov.T
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals[0] <= _SPD_RTOL * eigvals[-1]:
        raise NotPositiveDefinite(
            f"covariance must be positive definite: smallest eigenvalue {eigvals[0]:.3e} "
            f"is at or below tolerance {_SPD_RTOL * eigvals[-1]:.3e}"
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
    gain, sigma_n = _checked(gain=gain, sigma_n=sigma_n).values()
    form = _gain_form(gain, prior, "")
    return 3.0 * math.sqrt(_noise_variance(gain, sigma_n, "sigma_n") + form)


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
    k = _checked(k=k)["k"]
    scalars = _checked(seed=seed, field_half_width=field_half_width,
                       decay_exponent=decay_exponent, d_min=d_min)
    seed, field_half_width, decay_exponent, d_min = scalars.values()
    prior = make_prior(DEFAULT_COVARIANCE)
    sources = _default_sources()

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
    geometry = Geometry(source_positions=sources, sensor_positions=positions, **scalars)
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
    k = _checked(k=k)["k"]
    prior = make_prior(DEFAULT_COVARIANCE)
    tau = make_tau(gain, sigma_n, prior)
    sensor = Sensor(
        gain=gain, sigma_n=sigma_n, h_mag=h_mag, sigma_nu=sigma_nu, bits=bits, tau=tau
    )
    return Network(sensors=(sensor,) * k, prior=prior)


# ---------------------------------------------------------------------------
# Scenario files: UTF-8 JSON, strict schema, full round-trip precision.
# ---------------------------------------------------------------------------

def _load(build, entry, where: str):
    """build(**entry) from the JSON object at where ("" at the top level), which holds
    each parameter of build without a default and no other field.  Every failure is a
    ParseError naming where.field.
    """
    if not isinstance(entry, dict):
        raise ParseError(f"{where or 'scenario root'} must be a JSON object")
    prefix = f"{where}." if where else ""
    parameters = _PARAMETERS[build]
    unknown = sorted(set(entry) - set(parameters))
    if unknown:
        raise ParseError(f'unknown field "{prefix}{unknown[0]}"')
    missing = [name for name, p in parameters.items() if name not in entry and p.default is p.empty]
    if missing:
        raise ParseError(f'missing field "{prefix}{missing[0]}"')
    try:
        return build(**entry)
    except (ValueError, DimensionMismatch, NotSymmetric, NotPositiveDefinite) as exc:
        raise ParseError(f"{prefix}{exc}") from exc


_ABSENT = object()


def _scenario(version, prior, sensors, geometry=_ABSENT) -> Network:
    """The Network a scenario file's top-level fields describe."""
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"scenario declares version {version!r}, this build reads version {SCHEMA_VERSION}"
        )
    prior = _load(make_prior, prior, "prior")
    if not isinstance(sensors, list) or not sensors:
        raise ParseError("sensors must be a non-empty array")
    sensors = tuple(_load(Sensor, entry, f"sensors[{i}]") for i, entry in enumerate(sensors))
    geometry = None if geometry is _ABSENT else _load(Geometry, geometry, "geometry")
    return Network(sensors=sensors, prior=prior, geometry=geometry)


# The fields of each JSON object in a scenario file: the parameters of what builds it.
_PARAMETERS = {build: inspect.signature(build).parameters
               for build in (_scenario, make_prior, Sensor, Geometry)}


def _to_dict(record) -> dict:
    """A Sensor or Geometry as a JSON object, one key per dataclass field."""
    values = {f.name: getattr(record, f.name) for f in fields(record)}
    return {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in values.items()}


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
    """Inverse of network_to_dict, with strict field validation.

    A version other than SCHEMA_VERSION raises SchemaVersionMismatch; any
    other failure is a ParseError naming the field, as <where>.<field>.
    """
    return _load(_scenario, payload, "")


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
