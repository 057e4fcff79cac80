import numpy as np
import pytest

from fimalloc import fisher, model, quantcomm, verify
from fimalloc.errors import BelowFloor, DimensionMismatch, QuadratureNotConverged
from conftest import random_network


def single_node_g(s, alpha, quantizer, sigma_n):
    """The kernel core on a one-node table of unit weight: G at s itself."""
    b = quantcomm.beta(s, quantizer, sigma_n)[None, :]
    bd = quantcomm.beta_dot(s, quantizer, sigma_n)[None, :]
    return fisher._kernel_sum(np.ones(1), b, bd, alpha)


class TestGKernel:
    def test_two_cell_hand_value(self):
        # One-bit quantizer, tau = sigma = 1, error-free channel, s = 0:
        # beta = [1/2, 1/2], beta_dot = [-1, +1], so G = 2 * 1 / (1/2) = 4.
        q = quantcomm.make_quantizer(1, 1.0)
        assert single_node_g(0.0, np.eye(2), q, 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_uniform_confusion_kills_information(self, reference_sensor):
        q = quantcomm.make_quantizer(reference_sensor.bits, reference_sensor.tau)
        alpha = quantcomm.alpha_matrix(0.0, reference_sensor)
        for s in (-1.0, 0.0, 2.5):
            assert single_node_g(s, alpha, q, 1.0) < 1e-12

    def test_error_free_reduces_to_quantized_information(self):
        q = quantcomm.make_quantizer(2, 3.0)
        s, sigma = 0.7, 1.2
        expected = np.sum(
            quantcomm.beta_dot(s, q, sigma) ** 2 / quantcomm.beta(s, q, sigma)
        )
        assert single_node_g(s, np.eye(4), q, sigma) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative(self, reference_sensor):
        q = quantcomm.make_quantizer(reference_sensor.bits, reference_sensor.tau)
        rng = np.random.default_rng(5)
        for _ in range(30):
            alpha = quantcomm.alpha_matrix(float(rng.uniform(0, 20)), reference_sensor)
            value = single_node_g(float(rng.uniform(-8, 8)), alpha, q, 1.0)
            assert value >= 0.0 and np.isfinite(value)

    def test_expected_kernels_match_reference_formulas(self, golden_network):
        # The kernel and its p-slope written out in full; the shared core
        # must reproduce them bit for bit.
        for sensor in golden_network.sensors[:3]:
            kernel = fisher.InfoKernel(sensor, golden_network.prior)
            w, b, bd = kernel._weights, kernel._b, kernel._bd
            for p in np.geomspace(1e-8, 0.49, 50):
                p = float(p)
                alpha = quantcomm._alpha_entries(sensor.bits, p)
                slope = quantcomm._alpha_slope(sensor.bits, p)
                num = bd @ alpha.T
                den = b @ alpha.T
                num_d = bd @ slope.T
                den_d = b @ slope.T
                keep = den >= 1e-300
                safe = np.where(keep, den, 1.0)
                g = np.sum(np.where(keep, num * num / safe, 0.0), axis=1)
                dg = np.sum(
                    np.where(keep, (2.0 * num * num_d * safe - num * num * den_d)
                             / (safe * safe), 0.0),
                    axis=1,
                )
                assert kernel.expected_g(p) == float(w @ g)
                assert kernel.expected_g_slope(p) == float(w @ dg)


class TestTk:
    def test_zero_power(self, reference_sensor, default_prior):
        assert abs(fisher.t_k(0.0, reference_sensor, default_prior)) < 1e-12

    def test_zero_gain(self, default_prior):
        sensor = model.Sensor(gain=np.zeros(2), sigma_n=1.0, h_mag=0.7,
                              sigma_nu=1.0, bits=3, tau=3.0)
        for power in (0.0, 1.0, 50.0):
            assert fisher.t_k(power, sensor, default_prior) == 0.0

    def test_nonnegative_and_increasing(self, reference_sensor, default_prior):
        grid = np.linspace(0.0, 40.0, 15)
        values = [fisher.t_k(float(p), reference_sensor, default_prior) for p in grid]
        assert all(v >= 0.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_matches_theta_monte_carlo(self, reference_sensor, default_prior):
        quad = fisher.t_k(10.0, reference_sensor, default_prior)
        mc = verify.mc_t_oracle(10.0, reference_sensor, default_prior, 100_000, seed=12)
        assert abs(quad - mc) / mc < 0.02

    def test_dimension_reduction_randomized(self, default_prior):
        # The full-dimensional Monte Carlo expectation must agree with the
        # one-dimensional quadrature within sampling error.
        rng = np.random.default_rng(21)
        for _ in range(5):
            net = random_network(rng, k=1)
            sensor = net.sensors[0]
            power = float(rng.uniform(0.5, 30.0))
            quad = fisher.t_k(power, sensor, net.prior)
            trials = 60_000
            chol = np.linalg.cholesky(net.prior.covariance)
            theta = rng.standard_normal((trials, net.prior.q)) @ chol.T
            s = theta @ sensor.gain
            q = quantcomm.make_quantizer(sensor.bits, sensor.tau)
            alpha = quantcomm.alpha_matrix(power, sensor)
            b = quantcomm._beta_table(s, q, sensor.sigma_n)
            bd = quantcomm._beta_dot_table(s, q, sensor.sigma_n)
            num = bd @ alpha.T
            den = b @ alpha.T
            keep = den >= 1e-300
            g = np.sum(np.where(keep, num * num / np.where(keep, den, 1.0), 0.0), axis=1)
            pref = float(sensor.gain @ sensor.gain) / (2 * np.pi * sensor.sigma_n ** 2)
            samples = pref * g
            mc = samples.mean()
            stderr = samples.std(ddof=1) / np.sqrt(trials)
            assert abs(quad - mc) <= 3.0 * stderr + 1e-9

    def test_resolution_doubling_agreement(self, reference_sensor, default_prior):
        for power in np.geomspace(0.1, 100.0, 12):
            coarse = fisher.t_k(float(power), reference_sensor, default_prior)
            fine = fisher.InfoKernel(reference_sensor, default_prior, 161).t_checked(float(power))
            assert abs(coarse - fine) <= 1e-8 * max(abs(fine), 1e-30)


class TestLadder:
    """InfoKernel.t_checked returns the coarsest rung that the next rung confirms."""

    @staticmethod
    def fake_g(monkeypatch, values):
        seen = []

        def expected_g(self, p_bit):
            seen.append(self.n_nodes)
            return values[self.n_nodes]

        monkeypatch.setattr(fisher.InfoKernel, "expected_g", expected_g)
        return seen

    @staticmethod
    def count_builds(monkeypatch):
        built = []
        init = fisher.InfoKernel.__init__

        def counted(self, sensor, prior, n_nodes=fisher.DEFAULT_NODES):
            built.append(n_nodes)
            init(self, sensor, prior, n_nodes)

        monkeypatch.setattr(fisher.InfoKernel, "__init__", counted)
        return built

    def test_rung_one_confirms_rung_zero(self, monkeypatch, reference_sensor, default_prior):
        seen = self.fake_g(monkeypatch, {81: 1.0, 161: 1.0 + 1e-7, 321: 5.0})
        kernel = fisher.InfoKernel(reference_sensor, default_prior)
        assert kernel.t_checked(2.0) == kernel.prefactor * 1.0
        assert seen == [81, 161]

    def test_only_rung_two_confirms_rung_one(self, monkeypatch, reference_sensor,
                                             default_prior):
        seen = self.fake_g(monkeypatch, {81: 1.0, 161: 2.0, 321: 2.0 * (1.0 + 1e-7)})
        kernel = fisher.InfoKernel(reference_sensor, default_prior)
        assert kernel.t_checked(2.0) == kernel.prefactor * 2.0
        assert seen == [81, 161, 321]

    def test_no_rung_confirms(self, monkeypatch, reference_sensor, default_prior):
        self.fake_g(monkeypatch, {81: 1.0, 161: 2.0, 321: 3.0})
        with pytest.raises(QuadratureNotConverged, match=r"power 2\.5 .* 321 nodes"):
            fisher.t_k(2.5, reference_sensor, default_prior)

    def test_each_finer_rung_built_once(self, monkeypatch, reference_sensor, default_prior):
        self.fake_g(monkeypatch, {81: 1.0, 161: 2.0, 321: 2.0})
        built = self.count_builds(monkeypatch)
        kernel = fisher.InfoKernel(reference_sensor, default_prior)
        for power in np.linspace(0.0, 50.0, 11):
            kernel.t_checked(float(power))
        assert built == [81, 161, 321]
        net = model.Network(sensors=(reference_sensor,) * 2, prior=default_prior)
        built.clear()
        fisher.tabulate_t(net, np.linspace(0.0, 50.0, 11))
        assert built == [81, 161, 321] * 2


class TestTkDerivative:
    def test_below_floor(self, reference_sensor, default_prior):
        with pytest.raises(BelowFloor):
            fisher.t_k_derivative(0.0, reference_sensor, default_prior)

    def test_finite_difference_reference_points(self, reference_sensor, default_prior):
        kernel = fisher.InfoKernel(reference_sensor, default_prior)
        for power in (1.0, 5.0, 20.0):
            analytic = fisher.t_k_derivative(power, reference_sensor, default_prior)
            h = 1e-4 * power
            fd = (kernel.t(power + h) - kernel.t(power - h)) / (2 * h)
            assert abs(analytic - fd) / abs(fd) < 1e-4

    def test_finite_difference_randomized(self):
        results = verify.check_grad(count=20, seed=verify.DEFAULT_SEED)
        assert all(r.passed for r in results), [r.line() for r in results]

    def test_derivative_decreasing_on_log_grid(self, reference_sensor, default_prior):
        # Numerical concavity check for the reference sensor.
        grid = np.geomspace(0.1, 100.0, 25)
        values = [fisher.t_k_derivative(float(p), reference_sensor, default_prior)
                  for p in grid]
        assert all(b < a + 1e-9 for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3  # saturation: derivative heads to zero


class TestTraceFim:
    def test_prior_only_baseline(self, golden_network):
        powers = np.zeros(golden_network.k)
        selection = np.zeros(golden_network.k)
        value = fisher.trace_fim(powers, selection, golden_network)
        assert abs(value - 17.0 / 3.0) < 1e-12

    def test_single_sensor_additivity(self, reference_sensor, default_prior):
        net = model.Network(sensors=(reference_sensor,) * 3, prior=default_prior)
        powers = np.array([7.0, 0.0, 0.0])
        selection = np.array([1, 0, 0])
        expected = default_prior.inverse_trace + fisher.t_k(7.0, reference_sensor, default_prior)
        assert fisher.trace_fim(powers, selection, net) == pytest.approx(expected, rel=1e-12)

    def test_unselected_power_ignored(self, reference_sensor, default_prior):
        net = model.Network(sensors=(reference_sensor,) * 2, prior=default_prior)
        with_power = fisher.trace_fim([3.0, 9.0], [1, 0], net)
        without = fisher.trace_fim([3.0, 0.0], [1, 0], net)
        assert with_power == without

    def test_zero_power_duplicate_equivalence(self, reference_sensor, default_prior):
        net2 = model.Network(sensors=(reference_sensor,) * 2, prior=default_prior)
        net1 = model.Network(sensors=(reference_sensor,), prior=default_prior)
        both = fisher.trace_fim([5.0, 0.0], [1, 1], net2)
        one = fisher.trace_fim([5.0], [1], net1)
        assert both == pytest.approx(one, rel=1e-12)

    def test_dimension_mismatch(self, golden_network):
        with pytest.raises(DimensionMismatch):
            fisher.trace_fim(np.zeros(3), np.zeros(3), golden_network)

    def test_never_below_prior(self, default_prior):
        rng = np.random.default_rng(31)
        for _ in range(10):
            net = random_network(rng)
            powers = rng.uniform(0, 5, size=net.k)
            selection = rng.integers(0, 2, size=net.k)
            value = fisher.trace_fim(powers, selection, net)
            assert value >= net.prior.inverse_trace - 1e-12


class TestTabulate:
    def test_zero_column(self, reference_sensor, default_prior):
        net = model.Network(sensors=(reference_sensor,) * 3, prior=default_prior)
        table = fisher.tabulate_t(net, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(table[:, 0], 0.0, atol=1e-12)

    def test_identical_sensors_identical_rows(self, reference_sensor, default_prior):
        net = model.Network(sensors=(reference_sensor,) * 4, prior=default_prior)
        table = fisher.tabulate_t(net, np.linspace(0.0, 10.0, 6))
        for row in table[1:]:
            np.testing.assert_array_equal(row, table[0])

    def test_matches_t_k(self, reference_sensor, default_prior):
        net = model.Network(sensors=(reference_sensor,), prior=default_prior)
        grid = np.linspace(0.0, 12.0, 7)
        table = fisher.tabulate_t(net, grid)
        for j, power in enumerate(grid):
            expected = fisher.t_k(float(power), reference_sensor, default_prior)
            assert table[0, j] == expected

    def test_golden_table_nonnegative_nondecreasing(self, golden_network):
        grid = np.arange(101) * (30.0 / 100)
        table = fisher.tabulate_t(golden_network, grid)
        assert np.all(table >= 0.0)
        assert np.all(np.diff(table, axis=1) >= -1e-12)

    def test_rejects_bad_grid(self, golden_network):
        with pytest.raises(ValueError):
            fisher.tabulate_t(golden_network, [1.0, 0.5])
