import json
from pathlib import Path

import numpy as np
import pytest

from fimalloc import fisher, model

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def default_prior():
    return model.make_prior(model.DEFAULT_COVARIANCE)


@pytest.fixture(scope="session")
def reference_sensor(default_prior):
    """The homogeneous-network sensor used throughout the numerical checks."""
    gain = np.array(model.DEFAULT_GAIN)
    return model.Sensor(
        gain=gain,
        sigma_n=model.DEFAULT_SIGMA_N,
        h_mag=model.DEFAULT_H_MAG,
        sigma_nu=model.DEFAULT_SIGMA_NU,
        bits=model.DEFAULT_BITS,
        tau=model.make_tau(gain, model.DEFAULT_SIGMA_N, default_prior),
    )


@pytest.fixture(scope="session")
def golden_scenario_path():
    return FIXTURES / "golden_k20_seed42.json"


@pytest.fixture(scope="session")
def golden_network(golden_scenario_path):
    """Golden, shared by every test: its kernels and their memos carry from test to test."""
    return model.load_scenario(golden_scenario_path)


@pytest.fixture
def fresh_golden(golden_scenario_path):
    """A golden network of the test's own, whose kernels no other test has built or
    memoized: for tests that count reads, builds or computed values."""
    return model.load_scenario(golden_scenario_path)


@pytest.fixture(scope="session")
def golden_objectives():
    with open(FIXTURES / "golden_objectives.json") as fh:
        return json.load(fh)


def golden_with(path, keys, value) -> dict:
    """The golden scenario payload with the entry at the key path set to value."""
    payload = json.loads(path.read_text())
    parent = payload
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    return payload


def random_network(rng, k=None, q=2):
    """Small random network for fuzzing: random SPD prior and sensors."""
    if k is None:
        k = int(rng.integers(2, 6))
    base = rng.uniform(-1.0, 1.0, size=(q, q))
    cov = base @ base.T + np.eye(q) * rng.uniform(0.3, 1.5)
    prior = model.make_prior(cov)
    sensors = []
    for _ in range(k):
        gain = rng.uniform(0.1, 2.5, size=q)
        sigma_n = float(rng.uniform(0.5, 1.5))
        sensors.append(
            model.Sensor(
                gain=gain,
                sigma_n=sigma_n,
                h_mag=float(rng.uniform(0.4, 1.2)),
                sigma_nu=float(rng.uniform(0.6, 1.4)),
                bits=int(rng.integers(1, 4)),
                tau=model.make_tau(gain, sigma_n, prior),
            )
        )
    return model.Network(sensors=tuple(sensors), prior=prior)


def make_slope_rise(monkeypatch, sensor):
    """Patch InfoKernel.t_prime so that every sensor equal to `sensor` has t'(P) = 1 + P / 10."""
    t_prime = fisher.InfoKernel.t_prime
    monkeypatch.setattr(fisher.InfoKernel, "t_prime", lambda kernel, power: (
        1.0 + 0.1 * power if kernel.sensor == sensor else t_prime(kernel, power)))
