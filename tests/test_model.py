import copy
import dataclasses
import json
import math
import operator
import re

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from fimalloc import fisher, model, solvers
from fimalloc.errors import (
    DimensionMismatch,
    FimallocError,
    InfeasibleGeometry,
    NotPositiveDefinite,
    NotSymmetric,
    ParseError,
    SchemaVersionMismatch,
)
from conftest import FIXTURES, golden_with as _golden_with, random_network


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

    def test_largest_finite_covariance_stays_finite(self):
        # Symmetrizing as 0.5 * (C + C') overflowed this to inf.
        cov = [[1e308, 0.0], [0.0, 1e308]]
        np.testing.assert_array_equal(model.make_prior(cov).covariance, cov)

    def test_symmetric_covariance_kept_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            base = rng.uniform(-1, 1, size=(3, 3)) * 10.0 ** rng.integers(-100, 100)
            cov = base @ base.T + abs(base).max() ** 2 * np.eye(3)
            cov = np.triu(cov) + np.triu(cov, 1).T
            assert model.make_prior(cov).covariance.tobytes() == cov.tobytes()

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


class TestResolution:
    """2**bits * tau / sigma_n and 2**bits * sqrt(gain' C gain) / sigma_n are bounded."""

    @staticmethod
    def _network(bits, tau, gain=(1.0, 0.5)):
        sensor = model.Sensor(gain=np.array(gain), sigma_n=0.5, h_mag=0.7, sigma_nu=1.0,
                              bits=bits, tau=tau)
        return model.Network(sensors=(sensor,), prior=model.make_prior(np.eye(2)))

    @pytest.mark.parametrize("bits", [1, 3, 8])
    def test_bound_takes_bits_into_account(self, bits):
        # sigma_n is 0.5: at twice the bound the test passes at DEFAULT_SIGMA_N,
        # so sigma_n is named; at four times, tau or the gain is.
        at_bound = 0.5 * model.MAX_RESOLUTION / 2 ** bits
        self._network(bits, at_bound)
        for scale, field in ((2, "sigma_n"), (4, "tau")):
            with pytest.raises(ValueError, match=re.escape(
                    f"sensors[0].{field} must keep 2**bits * tau / sigma_n at most "
                    f"{model.MAX_RESOLUTION}, got {scale * model.MAX_RESOLUTION}")):
                self._network(bits, scale * at_bound)
        gain = (0.5 * model.MAX_RESOLUTION / 2 ** bits, 0.0)
        self._network(bits, 1.0, gain)
        for scale, field in ((2, "sigma_n"), (4, "gain")):
            with pytest.raises(ValueError, match=re.escape(
                    f"sensors[0].{field} must keep 2**bits * sqrt(gain' C gain) / sigma_n at most")):
                self._network(bits, 1.0, (scale * gain[0], 0.0))

    def test_generators_and_kernels_apply_it(self):
        with pytest.raises(ValueError, match=re.escape("sensors[0].tau must keep 2**bits")):
            model.homogeneous_network(2, gain=(1e5, 1e5))
        sensor = self._network(3, 1.0).sensors[0]
        huge = dataclasses.replace(sensor, tau=1e300)
        with pytest.raises(ValueError, match=re.escape("sensor.tau must keep 2**bits")):
            fisher.t_k(5.0, huge, model.make_prior(np.eye(2)))

    def test_no_tested_sensor_comes_near_the_bound(self, golden_network, monkeypatch):
        # Golden's largest is 919 and seeded deployments' 4,733 (seeds 0-199),
        # so the bound is a memory guard, not a limit on any tested network.
        monkeypatch.setattr(model, "MAX_RESOLUTION", model.MAX_RESOLUTION // 16)
        model.Network(sensors=golden_network.sensors, prior=golden_network.prior)
        model.homogeneous_network(10)
        rng = np.random.default_rng(2024)  # the fuzzed networks of scripts/fingerprint.py
        for _ in range(30):
            random_network(rng)
        for seed in range(200):
            model.generate_deployment(seed, 20)


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

    @pytest.mark.parametrize("keys, value, message", [
        (("geometry", "sensor_positions"), [[0.1, 0.2]] * 3,
         "geometry.sensor_positions has 3 rows for 20 sensors"),
        (("geometry", "sensor_positions"), [[0.1, 0.2, 0.3]] * 20,
         "geometry.sensor_positions must have shape (K, 2), got (20, 3)"),
        (("geometry", "sensor_positions"), [0.1, 0.2],
         "geometry.sensor_positions must have shape (K, 2), got (2,)"),
        (("geometry", "sensor_positions", 5, 0), math.nan,
         "geometry.sensor_positions must be finite, got nan at [5, 0]"),
        (("geometry", "source_positions", 1, 1), -math.inf,
         "geometry.source_positions must be finite, got -inf at [1, 1]"),
        (("geometry", "source_positions"), [1.0],
         "geometry.source_positions must have shape (2, 2), got (1,)"),
        (("geometry", "source_positions"), [[0.0, 1.0]] * 3,
         "geometry.source_positions must have shape (2, 2), got (3, 2)"),
        (("geometry", "field_half_width"), -1.0,
         "geometry.field_half_width must be positive and finite, got -1.0"),
        (("geometry", "field_half_width"), 0.0,
         "geometry.field_half_width must be positive and finite, got 0.0"),
        (("geometry", "d_min"), math.nan, "geometry.d_min must be positive and finite, got nan"),
        (("geometry", "d_min"), -0.1, "geometry.d_min must be positive and finite, got -0.1"),
        (("geometry", "decay_exponent"), math.inf,
         "geometry.decay_exponent must be finite, got inf"),
        (("geometry", "seed"), -1, "geometry.seed must be nonnegative, got -1"),
        (("geometry", "field_half_width"), 0.5,
         "geometry.source_positions must be inside or on the field"),
    ], ids=["3-rows", "3-columns", "vector", "nan", "inf-source", "source-vector",
            "3-sources", "negative-half-width", "zero-half-width", "nan-d-min",
            "negative-d-min", "inf-decay", "negative-seed", "sources-outside"])
    def test_malformed_geometry_named(self, keys, value, message, golden_scenario_path):
        payload = _golden_with(golden_scenario_path, keys, value)
        with pytest.raises(FimallocError, match=re.escape(message)):
            model.network_from_dict(payload)

    @pytest.mark.parametrize("covariance, message", [
        ([[4.0, 0.5], [0.6, 0.25]], "prior.covariance is not symmetric"),
        ([[0.0, 0.0], [0.0, 0.0]], "prior.covariance is identically zero"),
        ([[-4.0, -0.5], [-0.5, -0.25]], "prior.covariance must be positive definite: "
                                        "smallest eigenvalue -4.066e+00"),
        ([[4.0, 0.5, 0.0], [0.5, 0.25, 0.0]], "prior.covariance must have shape (q, q), got (2, 3)"),
        ([[4.0, 0.5], [0.5, math.nan]], "prior.covariance must be finite, got nan at [1, 1]"),
    ], ids=["asymmetric", "zero", "indefinite", "not-square", "nan"])
    def test_malformed_prior_named(self, covariance, message, golden_scenario_path):
        payload = _golden_with(golden_scenario_path, ("prior", "covariance"), covariance)
        with pytest.raises(ParseError, match=re.escape(message)):
            model.network_from_dict(payload)

    @pytest.mark.parametrize("version", [True, False, "1", None, [1], 2, 1.5])
    def test_version_checked_strictly(self, version, golden_scenario_path):
        payload = _golden_with(golden_scenario_path, ("version",), version)
        message = f"scenario declares version {version!r}, this build reads version 1"
        with pytest.raises(SchemaVersionMismatch, match=re.escape(message)):
            model.network_from_dict(payload)

    @pytest.mark.parametrize("keys, value, message", [
        (("sensors", 0, "gain"), [1e200, 1e200],
         "sensors[0].gain must keep gain' C gain finite, got inf"),
        (("sensors", 5, "gain"), [1e200, -1e200],
         "sensors[5].gain must keep gain' C gain finite, got"),
        (("sensors", 3, "surprise"), 1, 'unknown field "sensors[3].surprise"'),
        (("geometry", "surprise"), 1, 'unknown field "geometry.surprise"'),
        (("prior", "surprise"), 1, 'unknown field "prior.surprise"'),
        (("sensors", 0, "sigma_n"), 1e-300, "sensors[0].sigma_n must be such that sigma_n ** 2"),
        (("sensors", 7, "sigma_n"), 1e-155, "(2 pi sigma_n ** 2) is finite, got 1e-155"),
        (("sensors", 0, "gain"), [1e150, 1e150], "sensors[0].gain must keep 2**bits * sqrt("),
        (("sensors", 0, "tau"), 1e300, "sensors[0].tau must keep 2**bits * tau / sigma_n"),
        (("sensors", 4, "sigma_n"), 1e-6, "sensors[4].sigma_n must keep 2**bits * tau / sigma_n"),
        (("prior", "covariance"), [[1e20, 0.0], [0.0, 1e20]],
         "prior.covariance, for sensors[0], must keep 2**bits * sqrt(gain' C gain) / sigma_n"),
        (("prior", "covariance"), [[1e308, 0.0], [0.0, 1e308]],
         "prior.covariance, for sensors[0], must keep gain' C gain finite, got inf"),
    ], ids=["gain-overflow", "gain-overflow-mixed-signs", "unknown-sensor-field",
            "unknown-geometry-field", "unknown-prior-field", "sigma_n-1e-300", "sigma_n-1e-155",
            "gain-1e150", "tau-1e300", "sigma_n-1e-6", "covariance-1e20", "covariance-1e308"])
    def test_bad_field_named(self, keys, value, message, golden_scenario_path):
        payload = _golden_with(golden_scenario_path, keys, value)
        with pytest.raises(ParseError, match=re.escape(message)):
            model.network_from_dict(payload)

    @pytest.mark.parametrize("keys, where", [
        (("sensors", 3), "sensors[3].tau"),
        (("geometry",), "geometry.d_min"),
        (("prior",), "prior.covariance"),
        ((), "version"),
    ])
    def test_missing_field_named(self, keys, where, golden_scenario_path):
        payload = json.loads(golden_scenario_path.read_text())
        record = payload
        for key in keys:
            record = record[key]
        del record[where.rsplit(".", 1)[-1]]
        with pytest.raises(ParseError, match=re.escape(f'missing field "{where}"')):
            model.network_from_dict(payload)

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


class TestStrongLink:
    """(h_mag / sigma_nu) ** 2, the link scale of t' at zero power, must be finite."""

    @pytest.mark.parametrize("change, field", [
        ({"h_mag": 1e300}, "h_mag"),
        ({"sigma_nu": 1e-300}, "sigma_nu"),
        ({"h_mag": 1e100, "sigma_nu": 1e-200}, "sigma_nu"),
        ({"h_mag": 1e300, "sigma_nu": 1e-300}, "h_mag"),
    ], ids=["h_mag", "sigma_nu", "both-sigma_nu", "both-h_mag"])
    def test_overflowing_square_names_the_field(self, reference_sensor, change, field):
        with pytest.raises(ValueError, match=rf"^{field} must keep \(h_mag / sigma_nu\) \*\* 2 "
                                             r"finite"):
            dataclasses.replace(reference_sensor, **change)

    @pytest.mark.parametrize("change", [{"h_mag": 1e154}, {"sigma_nu": 1e-154},
                                        {"h_mag": 1e-300}, {"sigma_nu": 1e300}])
    def test_finite_square_is_kept(self, reference_sensor, default_prior, change):
        sensor = dataclasses.replace(reference_sensor, **change)
        assert math.isfinite(fisher.InfoKernel(sensor, default_prior).t_prime(0.0))


class TestNetworkEquality:
    def test_equal_deployments_compare_and_hash_equal(self):
        a, b = model.generate_deployment(42, 20), model.generate_deployment(42, 20)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) and hash(a.geometry) == hash(b.geometry)
        assert {a: 1}[b] == 1

    def test_a_moved_sensor_is_unequal(self):
        a = model.generate_deployment(42, 20)
        positions = a.geometry.sensor_positions.copy()
        positions[7, 1] = np.nextafter(positions[7, 1], 2.0)
        b = dataclasses.replace(a, geometry=dataclasses.replace(a.geometry,
                                                                sensor_positions=positions))
        assert a.sensors == b.sensors and a.geometry != b.geometry and a != b

    def test_scenario_round_trip_is_equal(self, golden_network, golden_scenario_path, tmp_path):
        path = tmp_path / "again.json"
        model.save_scenario(golden_network, path)
        again = model.load_scenario(path)
        assert again == golden_network == model.load_scenario(golden_scenario_path)
        assert hash(again) == hash(golden_network)
        assert model.homogeneous_network(3) == model.homogeneous_network(3)

    def test_built_kernels_take_no_part(self, fresh_golden, golden_scenario_path):
        fresh = model.load_scenario(golden_scenario_path)
        before = hash(fresh_golden)
        solvers.solve_usu(fresh_golden, 5.0)
        assert len(fresh_golden._kernels) == 20 and not fresh._kernels
        assert fresh_golden == fresh and hash(fresh_golden) == hash(fresh) == before
        assert "_kernels" not in repr(fresh_golden)


class TestPriorEquality:
    def test_equal_covariances_are_equal_priors(self, default_prior):
        again = model.make_prior([[4.0, 0.5], [0.5, 0.25]])
        assert again is not default_prior
        assert again == default_prior and hash(again) == hash(default_prior)
        assert {default_prior: 1}[again] == 1

    def test_other_covariances_and_types_differ(self, default_prior):
        assert model.make_prior([[4.0, 0.5], [0.5, 0.3]]) != default_prior
        assert model.make_prior(np.eye(3)) != model.make_prior(np.eye(2))
        assert (default_prior == "x") is False


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
    (lambda: model.generate_deployment(1, "2"), "k"),
    (lambda: model.generate_deployment(1, 2.5), "k"),
    (lambda: model.generate_deployment(1, True), "k"),
    (lambda: model.generate_deployment("1", 2), "seed"),
    (lambda: model.generate_deployment(1.5, 2), "seed"),
    (lambda: model.generate_deployment(None, 2), "seed"),
    (lambda: model.generate_deployment(-1, 2), "seed"),
    (lambda: model.homogeneous_network("2"), "k"),
    (lambda: model.homogeneous_network(2.5), "k"),
    # Non-finite geometry once failed later: an unnamed OverflowError from
    # the position draw, exhausted re-draws, or a non-finite gain.
    (lambda: model.generate_deployment(1, 2, field_half_width=math.inf), "field_half_width"),
    (lambda: model.generate_deployment(1, 2, d_min=math.nan), "d_min"),
    (lambda: model.generate_deployment(1, 2, decay_exponent=math.nan), "decay_exponent"),
    # One k rule for both generators, and the field rule for the sources.
    (lambda: model.generate_deployment(1, 0), "k"),
    (lambda: model.homogeneous_network(0), "k"),
    (lambda: model.homogeneous_network(-2), "k"),
    (lambda: model.Network(sensors=(), prior=model.make_prior(np.eye(2))), "k"),
    (lambda: model.generate_deployment(1, 2, field_half_width=0.5), "source_positions"),
    (lambda: model.generate_deployment(1, 3, sigma_n=1e200), "sigma_n"),
    (lambda: model.homogeneous_network(2, sigma_n=1e-155), "sigma_n"),
], ids=["sigma_n-str", "sigma_n-none", "sigma_n-entry", "decay-str", "decay-none",
        "d_min-str", "half_width-np-bool", "homogeneous-gain", "homogeneous-sigma_n",
        "k-str", "k-fraction", "k-bool", "seed-str", "seed-fraction", "seed-none",
        "seed-negative", "homogeneous-k-str", "homogeneous-k-fraction", "half_width-inf",
        "d_min-nan", "decay-nan", "k-zero", "homogeneous-k-zero", "homogeneous-k-negative",
        "network-without-sensors", "sources-outside-field", "sigma_n-square-overflow",
        "homogeneous-sigma_n-prefactor-overflow"])
def test_generators_name_the_field(call, field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        call()


def test_generators_take_integral_floats_for_seed_and_k():
    assert model.generate_deployment(7.0, 3.0).sensors == model.generate_deployment(7, 3).sensors
    assert model.homogeneous_network(np.int64(3)).k == 3


# ---------------------------------------------------------------------------
# One-leaf fuzz of the scenario reader: every field of golden, and every number
# inside an array field, mutated alone.  Finite but extreme magnitudes come from
# scaling every number of a leaf by 1e20, 1e300 or 1e-300, which the range rules
# (MAX_RESOLUTION, a finite gain' C gain, a finite (h_mag / sigma_nu) ** 2) must
# pin on that leaf; a large prior covariance, which the first sensor's gain once
# took the blame for, and a strong link from either side are always among the
# examples.
# ---------------------------------------------------------------------------

GOLDEN = json.loads((FIXTURES / "golden_k20_seed42.json").read_text())


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def _field(path):
    """The key path of the field that holds path: where.field, or version at the top."""
    return path[:3] if path[0] == "sensors" else path[:2]


def _name(path) -> str:
    """A key path as load errors name it, e.g. sensors[3].gain or prior.covariance."""
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text


def _leaves(payload) -> list:
    records = [("prior",), *(("sensors", i) for i in range(len(payload["sensors"]))), ("geometry",)]
    fields = [("version",)] + [record + (key,) for record in records
                               for key in sorted(_at(payload, record))]
    entries = [path + index for path in fields if isinstance(_at(payload, path), list)
               for index in np.ndindex(np.shape(_at(payload, path)))]
    return fields + entries


def _each(value, op):
    """op applied to every number in a value nested in lists."""
    return [_each(v, op) for v in value] if isinstance(value, list) else op(value)


_RESHAPES = {
    "wrap": lambda value: [value],
    "drop": lambda value: value[:-1] if isinstance(value, list) else [],
    "append": lambda value: value + value[-1:] if isinstance(value, list) else [value, value],
}
_NUMBER_OPS = {
    "negate": operator.neg,
    "zero": lambda x: 0 * x,
    "nan": lambda x: math.nan,
    "inf": lambda x: math.inf,
    "-inf": lambda x: -math.inf,
    "times-1e20": lambda x: 1e20 * x,
    "times-1e300": lambda x: 1e300 * x,
    "times-1e-300": lambda x: 1e-300 * x,
}
MUTATIONS = st.one_of(
    st.tuples(st.just("value"), st.one_of(st.booleans(), st.text(max_size=3), st.none())),
    st.tuples(st.just("each"), st.sampled_from(sorted(_NUMBER_OPS))),
    st.tuples(st.just("reshape"), st.sampled_from(sorted(_RESHAPES))),
    st.tuples(st.just("delete"), st.none()),
    st.tuples(st.just("unknown"), st.text(min_size=1, max_size=5)),
)


def _mutated(path, mutation):
    """Golden with the leaf at path mutated, and the name a load failure must give."""
    payload = copy.deepcopy(GOLDEN)
    parent, key = _at(payload, path[:-1]), path[-1]
    kind, arg = mutation
    name = _name(_field(path))
    if kind == "value":
        parent[key] = arg
    elif kind == "each":
        parent[key] = _each(parent[key], _NUMBER_OPS[arg])
    elif kind == "reshape":
        parent[key] = _RESHAPES[arg](parent[key])
    elif kind == "delete":
        del parent[key]
    else:
        record = _field(path)[:-1]
        hypothesis.assume(arg not in _at(payload, record))
        _at(payload, record)[arg] = 1.0
        name = _name(record + (arg,))
    return payload, name


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(path=st.sampled_from(_leaves(GOLDEN)), mutation=MUTATIONS)
@hypothesis.example(path=("prior", "covariance"), mutation=("each", "times-1e20"))
@hypothesis.example(path=("prior", "covariance"), mutation=("each", "times-1e300"))
@hypothesis.example(path=("sensors", 0, "h_mag"), mutation=("each", "times-1e300"))
@hypothesis.example(path=("sensors", 0, "sigma_nu"), mutation=("each", "times-1e-300"))
def test_one_leaf_mutation_is_named_or_solved(path, mutation):
    """Either the load fails naming exactly the mutated field, or ufa solves the network."""
    payload, name = _mutated(path, mutation)
    try:
        network = model.network_from_dict(payload)
    except FimallocError as exc:
        assert re.search(rf"(?<![\w.\[\]]){re.escape(name)}(?![\w\[])", str(exc)), (name, str(exc))
        return
    solvers.verify_allocation(solvers.solve_ufa(network, 5.0), network, 5.0)
