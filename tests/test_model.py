import dataclasses
import json
import re

import numpy as np
import pytest

from fimalloc import model
from fimalloc.errors import (
    DimensionMismatch,
    InfeasibleGeometry,
    NotPositiveDefinite,
    NotSymmetric,
    ParseError,
    SchemaVersionMismatch,
)


def _golden_with(path, keys, value) -> dict:
    """The golden scenario payload with the entry at the key path set to value."""
    payload = json.loads(path.read_text())
    parent = payload
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    return payload


class TestMakePrior:
    def test_reference_covariance_inverse_trace(self):
        # Closed form for [[4, .5], [.5, .25]]: det = 0.75,
        # tr(inverse) = (0.25 + 4) / 0.75 = 17/3.
        prior = model.make_prior([[4.0, 0.5], [0.5, 0.25]])
        assert abs(prior.inverse_trace - 17.0 / 3.0) < 1e-12

    def test_identity_inverse_trace(self):
        prior = model.make_prior(np.eye(3))
        assert prior.inverse_trace == pytest.approx(3.0, abs=1e-14)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            model.make_prior([[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            model.make_prior([[1.0, 0.2], [0.3, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            model.make_prior([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_inverse_times_covariance_is_identity(self, default_prior):
        product = default_prior.inverse @ default_prior.covariance
        np.testing.assert_allclose(product, np.eye(2), atol=1e-10)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            base = rng.uniform(-1, 1, size=(3, 3))
            cov = base @ base.T + 0.5 * np.eye(3)
            prior = model.make_prior(cov)
            back = np.linalg.inv(prior.inverse)
            err = np.linalg.norm(back - prior.covariance) / np.linalg.norm(prior.covariance)
            assert err < 1e-8


class TestMakeTau:
    def test_reference_values(self, default_prior):
        # gain' C gain = 2.08 for the reference gain, so tau = 3 sqrt(3.08).
        tau = model.make_tau([0.6, 0.8], 1.0, default_prior)
        assert tau == pytest.approx(3.0 * np.sqrt(3.08), rel=1e-12)

    def test_zero_gain(self, default_prior):
        assert model.make_tau([0.0, 0.0], 1.0, default_prior) == pytest.approx(3.0, rel=1e-12)

    def test_tiny_noise(self):
        prior = model.make_prior(np.eye(2))
        tau = model.make_tau([1.0, 0.0], 0.001, prior)
        assert tau == pytest.approx(3.0 * np.sqrt(1.0 + 1e-6), rel=1e-12)

    def test_dimension_mismatch(self, default_prior):
        with pytest.raises(DimensionMismatch):
            model.make_tau([1.0, 0.0, 0.0], 1.0, default_prior)

    def test_monotone_in_noise_and_prior_scale(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            base = rng.uniform(-1, 1, size=(2, 2))
            cov = base @ base.T + 0.4 * np.eye(2)
            prior = model.make_prior(cov)
            gain = rng.uniform(0.1, 2.0, size=2)
            sigma = rng.uniform(0.3, 2.0)
            tau = model.make_tau(gain, sigma, prior)
            assert model.make_tau(gain, sigma * 1.3, prior) >= tau
            bumped = model.make_prior(cov + np.diag(rng.uniform(0.1, 1.0, size=2)))
            assert model.make_tau(gain, sigma, bumped) >= tau


class TestGenerateDeployment:
    def test_gains_match_distance_ratios(self):
        net = model.generate_deployment(5, 12)
        g = net.geometry
        d0 = np.linalg.norm(g.source_positions, axis=1)
        for sensor, pos in zip(net.sensors, g.sensor_positions):
            dist = np.linalg.norm(g.source_positions - pos, axis=1)
            expected = (d0 / dist) ** g.decay_exponent
            np.testing.assert_allclose(sensor.gain, expected, rtol=1e-12)

    def test_distance_floor_and_gain_bounds(self):
        net = model.generate_deployment(9, 30)
        g = net.geometry
        d0 = np.linalg.norm(g.source_positions, axis=1)
        for pos in g.sensor_positions:
            dist = np.linalg.norm(g.source_positions - pos, axis=1)
            assert np.all(dist >= g.d_min)
        bound = (d0 / g.d_min) ** g.decay_exponent
        for sensor in net.sensors:
            assert np.all(sensor.gain > 0.0)
            assert np.all(sensor.gain <= bound)

    def test_unit_distance_ratio_gives_unit_gain(self, default_prior):
        # A sensor exactly as far from each source as the origin is has gain 1.
        sources = model._default_sources()
        d0 = np.linalg.norm(sources, axis=1)
        gain = (d0 / d0) ** 2.0
        np.testing.assert_allclose(gain, [1.0, 1.0])

    def test_determinism(self, tmp_path):
        a = model.generate_deployment(42, 8)
        b = model.generate_deployment(42, 8)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        model.save_scenario(a, pa)
        model.save_scenario(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_tau_consistent_with_make_tau(self, default_prior):
        net = model.generate_deployment(3, 5)
        for sensor in net.sensors:
            expected = model.make_tau(sensor.gain, sensor.sigma_n, net.prior)
            assert sensor.tau == pytest.approx(expected, rel=1e-12)

    def test_infeasible_geometry(self):
        # d_min larger than any achievable source distance forces exhaustion.
        with pytest.raises(InfeasibleGeometry):
            model.generate_deployment(1, 4, d_min=5.0)

    def test_per_sensor_parameter_arrays(self):
        sigma_n = [0.5, 1.0, 1.5]
        bits = [1, 2, 3]
        net = model.generate_deployment(2, 3, sigma_n=sigma_n, bits=bits,
                                        h_mag=[0.5, 0.7, 0.9])
        for sensor, sn, b in zip(net.sensors, sigma_n, bits):
            assert sensor.sigma_n == sn
            assert sensor.bits == b
        assert [s.h_mag for s in net.sensors] == [0.5, 0.7, 0.9]

    @pytest.mark.parametrize("bits", [3.7, [True, 2.9], [True, 2], True])
    def test_fractional_or_boolean_bits_rejected(self, bits):
        with pytest.raises(ValueError, match="bits must be an integer"):
            model.generate_deployment(1, 2, bits=bits)


class TestSensorBits:
    @staticmethod
    def _sensor(bits):
        return model.Sensor(gain=np.array([1.0, 0.5]), sigma_n=1.0, h_mag=0.7,
                            sigma_nu=1.0, bits=bits, tau=3.0)

    @pytest.mark.parametrize("bits", [3.7, 2.5, True, np.True_, False, "3", float("nan")])
    def test_non_integer_rejected(self, bits):
        with pytest.raises(ValueError, match="bits must be an integer"):
            self._sensor(bits)

    @pytest.mark.parametrize("bits", [3, 3.0, np.int64(3), np.float32(3.0)])
    def test_integral_values_stored_as_int(self, bits):
        sensor = self._sensor(bits)
        assert type(sensor.bits) is int and sensor.bits == 3
        assert type(sensor.levels_count) is int and sensor.levels_count == 8

    @pytest.mark.parametrize("bits", [0, 9, 9.0])
    def test_out_of_range_rejected(self, bits):
        with pytest.raises(ValueError, match=r"bits must be in \[1, 8\]"):
            self._sensor(bits)


class TestBooleanPhysicalFields:
    @staticmethod
    def _sensor(**changes):
        fields = dict(gain=np.array([1.0, 0.5]), sigma_n=1.0, h_mag=0.7, sigma_nu=1.0,
                      bits=3, tau=3.0)
        fields.update(changes)
        return model.Sensor(**fields)

    @pytest.mark.parametrize("name", ["sigma_n", "h_mag", "sigma_nu", "tau"])
    @pytest.mark.parametrize("value", [True, np.True_])
    def test_sensor_rejects_boolean(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            self._sensor(**{name: value})

    @pytest.mark.parametrize("gain", [[True, 0.5], (0.5, np.True_), np.array([True, False])])
    def test_sensor_rejects_boolean_gain(self, gain):
        with pytest.raises(ValueError, match="gain must be an array of numbers"):
            self._sensor(gain=gain)

    @pytest.mark.parametrize("field, value", [
        ("sigma_n", True),
        ("h_mag", True),
        ("sigma_nu", False),
        ("tau", True),
        ("gain", [True, 0.5]),
        ("sigma_n", "1.0"),
        ("tau", None),
        ("gain", 0.5),
    ])
    def test_scenario_names_the_field(self, field, value, golden_scenario_path):
        payload = json.loads(golden_scenario_path.read_text())
        payload["sensors"][3][field] = value
        with pytest.raises(ParseError, match=re.escape(f"sensors[3].{field} must be")):
            model.network_from_dict(payload)

    @pytest.mark.parametrize("value", [True, "1", None])
    @pytest.mark.parametrize("keys", [
        ("sensors", 3, "gain"),
        ("sensors", 3, "sigma_n"),
        ("sensors", 3, "h_mag"),
        ("sensors", 3, "sigma_nu"),
        ("sensors", 3, "bits"),
        ("sensors", 3, "tau"),
        ("geometry", "seed"),
        ("geometry", "field_half_width"),
        ("geometry", "source_positions"),
        ("geometry", "sensor_positions"),
        ("geometry", "decay_exponent"),
        ("geometry", "d_min"),
        ("prior", "covariance"),
    ])
    def test_every_numeric_field_named(self, keys, value, golden_scenario_path):
        payload = _golden_with(golden_scenario_path, keys, value)
        where = f"sensors[3].{keys[-1]}" if keys[0] == "sensors" else ".".join(keys)
        with pytest.raises(ParseError, match=re.escape(f"{where} must be")):
            model.network_from_dict(payload)

    def test_integer_beyond_float_range_named(self, golden_scenario_path):
        payload = _golden_with(golden_scenario_path, ("sensors", 3, "sigma_n"), 10 ** 400)
        with pytest.raises(ParseError, match=re.escape("sensors[3].sigma_n must be finite")):
            model.network_from_dict(payload)

    @pytest.mark.parametrize("keys, where", [
        (("sensors", 3, "gain", 1), "sensors[3].gain"),
        (("geometry", "source_positions", 0, 1), "geometry.source_positions"),
        (("geometry", "sensor_positions", 5, 0), "geometry.sensor_positions"),
        (("prior", "covariance", 1, 1), "prior.covariance"),
    ])
    def test_boolean_array_entry_named(self, keys, where, golden_scenario_path):
        payload = _golden_with(golden_scenario_path, keys, True)
        with pytest.raises(ParseError, match=re.escape(f"{where} must be an array of numbers")):
            model.network_from_dict(payload)

    @pytest.mark.parametrize("name, value", [
        ("sigma_n", True),
        ("h_mag", True),
        ("sigma_nu", True),
        ("decay_exponent", True),
        ("field_half_width", True),
        ("sigma_n", [0.9, True]),
        ("h_mag", [0.7, np.True_]),
        ("sigma_nu", [0.9, True]),
    ])
    def test_generate_deployment_rejects_boolean(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            model.generate_deployment(1, 2, **{name: value})

    def test_homogeneous_network_rejects_boolean_gain(self):
        with pytest.raises(ValueError, match="gain must be an array of numbers"):
            model.homogeneous_network(2, gain=[True, 0.5])

    @pytest.mark.parametrize("covariance", [[[True, 0.0], [0.0, True]],
                                            np.array([[True, False], [False, True]])])
    def test_make_prior_rejects_boolean(self, covariance):
        with pytest.raises(ValueError, match="covariance must be an array of numbers"):
            model.make_prior(covariance)


class TestScenarioIO:
    def test_roundtrip_byte_equal(self, tmp_path):
        net = model.generate_deployment(7, 6)
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        model.save_scenario(net, first)
        model.save_scenario(model.load_scenario(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_numeric_fields_survive(self, tmp_path):
        net = model.generate_deployment(13, 4)
        path = tmp_path / "s.json"
        model.save_scenario(net, path)
        loaded = model.load_scenario(path)
        for a, b in zip(net.sensors, loaded.sensors):
            np.testing.assert_array_equal(a.gain, b.gain)
            assert a.tau == b.tau and a.sigma_n == b.sigma_n
        np.testing.assert_array_equal(
            net.geometry.sensor_positions, loaded.geometry.sensor_positions
        )

    def test_missing_prior_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "sensors": []}))
        with pytest.raises(ParseError, match="prior"):
            model.load_scenario(path)

    def test_unknown_field_rejected(self, tmp_path):
        net = model.homogeneous_network(2)
        payload = model.network_to_dict(net)
        payload["surprise"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="surprise"):
            model.load_scenario(path)

    def test_version_mismatch(self, tmp_path):
        net = model.homogeneous_network(2)
        payload = model.network_to_dict(net)
        payload["version"] = 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaVersionMismatch):
            model.load_scenario(path)

    def test_golden_fixture_loads(self, golden_network):
        assert golden_network.k == 20
        assert golden_network.prior.q == 2
        assert golden_network.seed == 42

    def test_golden_fixture_matches_regeneration(self, golden_scenario_path, tmp_path):
        regenerated = tmp_path / "regen.json"
        model.save_scenario(model.generate_deployment(42, 20), regenerated)
        assert regenerated.read_bytes() == golden_scenario_path.read_bytes()


class TestHomogeneousNetwork:
    def test_sensors_identical(self):
        net = model.homogeneous_network(5, gain=(0.6, 0.8))
        first = net.sensors[0]
        for sensor in net.sensors[1:]:
            np.testing.assert_array_equal(sensor.gain, first.gain)
            assert sensor.tau == first.tau

    def test_network_requires_consistent_dimensions(self, default_prior):
        good = model.Sensor(gain=np.array([1.0, 0.5]), sigma_n=1.0, h_mag=0.7,
                            sigma_nu=1.0, bits=2, tau=3.0)
        bad = model.Sensor(gain=np.array([1.0, 0.5, 0.2]), sigma_n=1.0, h_mag=0.7,
                           sigma_nu=1.0, bits=2, tau=3.0)
        with pytest.raises(DimensionMismatch):
            model.Network(sensors=(good, bad), prior=default_prior)


class TestSensorEquality:
    def test_equal_values_compare_and_hash_equal(self, reference_sensor):
        copies = [
            dataclasses.replace(reference_sensor, gain=list(reference_sensor.gain)),
            dataclasses.replace(reference_sensor, gain=reference_sensor.gain.copy(),
                                bits=np.int64(reference_sensor.bits)),
        ]
        for copy in copies:
            assert copy == reference_sensor and not copy != reference_sensor
            assert hash(copy) == hash(reference_sensor)

    @pytest.mark.parametrize("change", [
        {"gain": [0.6, 0.8000000000000002]},
        {"sigma_n": 1.5},
        {"h_mag": 0.75},
        {"sigma_nu": 0.9},
        {"bits": 2},
        {"tau": 5.0},
    ])
    def test_one_field_changed_is_unequal(self, reference_sensor, change):
        assert dataclasses.replace(reference_sensor, **change) != reference_sensor

    def test_signed_zero_gains_differ(self):
        sensors = [model.Sensor(gain=[g, 1.0], sigma_n=1.0, h_mag=0.7, sigma_nu=1.0,
                                bits=2, tau=3.0) for g in (0.0, -0.0)]
        assert sensors[0] != sensors[1]

    def test_other_types_and_dict_keys(self, reference_sensor):
        assert (reference_sensor == "x") is False
        assert reference_sensor != "x"
        twin = dataclasses.replace(reference_sensor)
        assert twin is not reference_sensor
        assert {reference_sensor: 1}[twin] == 1
        assert len({reference_sensor, twin}) == 1


@pytest.mark.parametrize("call, field", [
    (lambda: model.generate_deployment(1, 2, sigma_n="1"), "sigma_n"),
    (lambda: model.generate_deployment(1, 2, sigma_n=None), "sigma_n"),
    (lambda: model.generate_deployment(1, 2, sigma_n=[1.0, "1"]), "sigma_n"),
    (lambda: model.generate_deployment(1, 2, decay_exponent="2"), "decay_exponent"),
    (lambda: model.generate_deployment(1, 2, decay_exponent=None), "decay_exponent"),
    (lambda: model.generate_deployment(1, 2, d_min="0.1"), "d_min"),
    (lambda: model.generate_deployment(1, 2, field_half_width=np.True_), "field_half_width"),
    (lambda: model.homogeneous_network(2, gain=["a", 1.0]), "gain"),
    (lambda: model.homogeneous_network(2, sigma_n="1"), "sigma_n"),
], ids=["sigma_n-str", "sigma_n-none", "sigma_n-entry", "decay-str", "decay-none",
        "d_min-str", "half_width-np-bool", "homogeneous-gain", "homogeneous-sigma_n"])
def test_generators_name_the_field(call, field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        call()
