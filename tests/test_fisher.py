import gc
import math
import weakref

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from fimalloc import cli, fisher, model, quantcomm, solvers, verify
from fimalloc.errors import DimensionMismatch, QuadratureNotConverged
from conftest import random_network


def single_node_g(s, alpha, quantizer, sigma_n):
    """The kernel core on a one-node table of unit weight: G at s itself."""
    cells = np.stack([quantcomm.beta(s, quantizer, sigma_n),
                      quantcomm.beta_dot(s, quantizer, sigma_n)])
    return fisher._kernel_sum(np.ones(1), cells, alpha)


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
        # The kernel, its p-slope and the Kronrod error estimate written out
        # in full; the shared core must reproduce them bit for bit.  Rows
        # are summed by a product with ones, as the core does.  Below about
        # p = 1.26e-100, p**3 no longer clears twice the 1e-300 floor, and
        # the core takes its masked branch.
        def kernel_rows(cells, alpha, slope):
            b, bd = np.split(cells, 2)
            num, den = bd @ alpha.T, b @ alpha.T
            num_d, den_d = bd @ slope.T, b @ slope.T
            keep = den >= 1e-300
            safe = np.where(keep, den, 1.0)
            ones = np.ones(alpha.shape[0])
            r = np.where(keep, num / safe, 0.0)
            return (np.where(keep, num * num / safe, 0.0) @ ones,
                    (r * (2.0 * num_d - r * den_d)) @ ones, keep.all())

        p_values = np.concatenate((np.geomspace(1e-8, 0.49, 50),
                                   [1.26e-100, 1.25e-100, 1e-100, 1e-101, 1e-120, 1e-200, 0.0]))
        floored = 0
        for sensor in (golden_network.sensors[i] for i in (0, 1, 3)):
            kernel = fisher.InfoKernel(sensor, golden_network.prior)
            w = kernel._weights
            check_cells, gap_weights, kronrod_weights = kernel._check_tables()
            panels, n = gap_weights.shape[0], w.size
            for p in p_values:
                p = float(p)
                alpha = quantcomm._alpha_entries(sensor.bits, p)
                slope = quantcomm._alpha_slope(sensor.bits, p)
                g, dg, kept = kernel_rows(kernel._cells, alpha, slope)
                # The check's table holds both rules; the Kronrod-only rows follow the n Gauss rows.
                gk = kernel_rows(check_cells, alpha, slope)[0][n:]
                floored += not kept
                gaps = [gap_weights[i, 0] @ g_i - kronrod_weights[i, 0] @ gk_i
                        for i, (g_i, gk_i) in enumerate(zip(np.split(g, panels),
                                                            np.split(gk, panels)))]
                assert kernel.expected_g(p) == float(w @ g)
                assert kernel.expected_g(p, with_check=True) == (
                    float(w @ g), panels * float(max(abs(gap) for gap in gaps)))
                assert kernel.expected_g_slope(p) == float(w @ dg)
        # Sensors 1 and 3 (sigma_s 21 and 38) drop terms from p = 1e-101 down.
        assert floored == 2 * 4

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(
        bits=st.integers(1, 5),
        p=st.floats(0.0, 0.5),
        tau=st.floats(0.05, 20.0),
        sigma_n=st.floats(0.05, 5.0),
        gain=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2).filter(
            lambda g: abs(g[0]) + abs(g[1]) > 1e-3),
        factor=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
        ridge=st.floats(0.05, 2.0),
    )
    def test_properties_the_floor_decision_rests_on(self, bits, p, tau, sigma_n, gain, factor,
                                                     ridge):
        # The core multiplies by the confusion matrices untransposed, and
        # skips the floor mask when p**L clears it: every denominator is a
        # convex mix of confusion entries, the smallest of which is p**L.
        alpha = quantcomm._alpha_entries(bits, p)
        slope = quantcomm._alpha_slope(bits, p)
        assert np.array_equal(alpha, alpha.T) and np.array_equal(slope, slope.T)
        assert np.all(np.abs(alpha.sum(axis=1) - 1.0) <= 1e-15)
        assert np.all(np.abs(slope.sum(axis=1)) <= 1e-15 * bits * 2 ** bits)
        base = np.reshape(factor, (2, 2))
        prior = model.make_prior(base @ base.T + ridge * np.eye(2))
        sensor = model.Sensor(gain=np.array(gain), sigma_n=sigma_n, h_mag=1.0, sigma_nu=1.0,
                              bits=bits, tau=tau)
        kernel = fisher.InfoKernel(sensor, prior)
        for cells in (kernel._cells, kernel._check_tables()[0]):
            den = np.split(cells, 2)[0] @ alpha
            assert den.min() >= p ** bits * (1.0 - 1e-15)


class TestTk:
    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(
        bits=st.integers(1, 4),
        tau_scale=st.floats(0.1, 4.0),
        sigma_n=st.floats(0.05, 5.0),
        h_mag=st.floats(0.1, 3.0),
        sigma_nu=st.floats(0.1, 3.0),
        gain=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2).filter(
            lambda g: abs(g[0]) + abs(g[1]) > 1e-3),
        factor=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
        ridge=st.floats(0.05, 2.0),
        powers=st.lists(st.one_of(st.just(0.0), st.just(1e6), st.floats(0.0, 1e6)),
                        min_size=1, max_size=4),
    )
    def test_data_processing_bound(self, bits, tau_scale, sigma_n, h_mag, sigma_nu, gain,
                                   factor, ridge, powers):
        # The quantized, noisy link garbles y = gain' theta + n, whose
        # information trace is |gain|^2 / sigma_n^2 (Zamir, IEEE TIT 1998),
        # so no power can buy more; the bound needs no kernel.
        base = np.reshape(factor, (2, 2))
        prior = model.make_prior(base @ base.T + ridge * np.eye(2))
        gain = np.array(gain)
        sensor = model.Sensor(gain=gain, sigma_n=sigma_n, h_mag=h_mag, sigma_nu=sigma_nu,
                              bits=bits, tau=tau_scale * model.make_tau(gain, sigma_n, prior))
        bound = float(gain @ gain) / sigma_n ** 2
        for power in powers:
            assert 0.0 <= fisher.t_k(power, sensor, prior) <= bound

    def test_zero_power(self, reference_sensor, default_prior):
        assert abs(fisher.t_k(0.0, reference_sensor, default_prior)) < 1e-12

    def test_zero_gain(self, default_prior):
        sensor = model.Sensor(gain=np.zeros(2), sigma_n=1.0, h_mag=0.7,
                              sigma_nu=1.0, bits=3, tau=3.0)
        for power in (0.0, 1.0, 50.0):
            assert fisher.t_k(power, sensor, default_prior) == 0.0
            assert fisher.t_k_derivative(power, sensor, default_prior) == 0.0
        assert fisher.InfoKernel(sensor, default_prior).expected_g_slope(0.25) == 0.0

    @pytest.mark.parametrize("power", [math.nan, -1.0], ids=["nan", "negative"])
    def test_zero_gain_still_rejects_a_bad_power(self, power, default_prior):
        # A zero gain's t and t' are 0 at every power, but a negative or NaN
        # power raises, as in t_checked.
        sensor = model.Sensor(gain=np.zeros(2), sigma_n=1.0, h_mag=0.7,
                              sigma_nu=1.0, bits=3, tau=3.0)
        kernel = fisher.InfoKernel(sensor, default_prior)
        for call in (kernel.t, kernel.t_prime, kernel.t_checked,
                     lambda p: fisher.t_k_derivative(p, sensor, default_prior)):
            with pytest.raises(ValueError, match="power must be nonnegative"):
                call(power)

    def test_bare_sensor_checked_as_network_checks_it(self, default_prior):
        # sigma_n ** 2 underflows to 0: Network names sigma_n, and so must a
        # bare sensor's kernel, not fail dividing by zero in its prefactor.
        sensor = model.Sensor(gain=[0, 0], sigma_n=1e-300, h_mag=0.7, sigma_nu=1.0,
                              bits=3, tau=1e-300)
        with pytest.raises(ValueError, match=r"sensors\[0\]\.sigma_n must be such that"):
            model.Network(sensors=(sensor,), prior=default_prior)
        with pytest.raises(ValueError, match=r"sensor\.sigma_n must be such that"):
            fisher.t_k(1.0, sensor, default_prior)

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
            b, bd = np.split(quantcomm._cell_tables(s, q, sensor.sigma_n), 2)
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
            fine = fisher.InfoKernel(reference_sensor, default_prior, 2).t_checked(float(power))
            assert abs(coarse - fine) <= 1e-8 * max(abs(fine), 1e-30)


class TestLadder:
    """InfoKernel.t_checked returns rung 0 when its Gauss-Kronrod check passes or,
    failing that, when the kernel that cuts every panel in 2 confirms it, and
    raises otherwise."""

    @staticmethod
    def fake_kernels(monkeypatch, error, values):
        """The kernel of split n reports values[n]; rung 0's Kronrod error estimate is `error`."""
        seen = []

        def expected_g(self, p_bit, with_check=False):
            seen.append(("check", self.split) if with_check else self.split)
            return (values[self.split], error) if with_check else values[self.split]

        monkeypatch.setattr(fisher.InfoKernel, "expected_g", expected_g)
        return seen

    @staticmethod
    def count_builds(monkeypatch):
        built = []
        init = fisher.InfoKernel.__init__

        def counted(self, sensor, prior, split=1):
            built.append(split)
            init(self, sensor, prior, split)

        monkeypatch.setattr(fisher.InfoKernel, "__init__", counted)
        return built

    def test_kronrod_confirms_rung_zero(self, monkeypatch, reference_sensor, default_prior):
        seen = self.fake_kernels(monkeypatch, 0.9e-6, {1: 1.0, 2: 5.0})
        built = self.count_builds(monkeypatch)
        kernel = fisher.InfoKernel(reference_sensor, default_prior)
        assert kernel.t_checked(2.0) == kernel.prefactor * 1.0
        assert seen == [("check", 1)]
        assert built == [1]

    @pytest.mark.parametrize("error, escalates", [(1.9e-6, False), (2.1e-6, True)])
    def test_kronrod_error_is_relative_to_rung_zero(self, monkeypatch, reference_sensor,
                                                    default_prior, error, escalates):
        seen = self.fake_kernels(monkeypatch, error, {1: 2.0, 2: 2.0})
        kernel = fisher.InfoKernel(reference_sensor, default_prior)
        kernel.t_checked(2.0)
        assert seen == [("check", 1)] + [2] * escalates

    def test_rung_one_confirms_rung_zero(self, monkeypatch, reference_sensor, default_prior):
        seen = self.fake_kernels(monkeypatch, 0.5, {1: 1.0, 2: 1.0 + 1e-7})
        kernel = fisher.InfoKernel(reference_sensor, default_prior)
        assert kernel.t_checked(2.0) == kernel.prefactor * 1.0
        assert seen == [("check", 1), 2]

    @pytest.mark.parametrize("rung_zero, finer", [(1.0, 1.0 + 2e-6), (1.0, 1.0 - 2e-6),
                                                  (0.0, 1e-18)],
                             ids=["above", "below", "near-zero"])
    def test_split_two_does_not_confirm(self, monkeypatch, reference_sensor, default_prior,
                                        rung_zero, finer):
        # The move is measured against rung 0 alone; near zero, the zero test
        # counts the move too, so a value of 0 moved by 1e-18 is not confirmed.
        seen = self.fake_kernels(monkeypatch, 0.5, {1: rung_zero, 2: finer})
        kernel = fisher.InfoKernel(reference_sensor, default_prior)
        with pytest.raises(QuadratureNotConverged, match=r"power 2\.0 .* every panel in 2$"):
            kernel.t_checked(2.0)
        assert seen == [("check", 1), 2]
        assert 2.0 not in kernel._checked

    def test_no_rung_confirms(self, monkeypatch, reference_sensor, default_prior):
        self.fake_kernels(monkeypatch, 0.5, {1: 1.0, 2: 2.0})
        with pytest.raises(QuadratureNotConverged, match=r"power 2\.5 .* every panel in 2$"):
            fisher.t_k(2.5, reference_sensor, default_prior)

    def test_each_finer_rung_built_once(self, monkeypatch, reference_sensor, default_prior):
        self.fake_kernels(monkeypatch, 0.5, {1: 1.0, 2: 1.0})
        built = self.count_builds(monkeypatch)
        kernel = fisher.InfoKernel(reference_sensor, default_prior)
        for power in np.linspace(0.0, 50.0, 11):
            kernel.t_checked(float(power))
        assert built == [1, 2]
        # Twins share one network kernel: a table over two of them builds one
        # kernel and its split-2 kernel, and a second table builds nothing.
        net = model.Network(sensors=(reference_sensor,) * 2, prior=default_prior)
        built.clear()
        fisher.tabulate_t(net, np.linspace(0.0, 50.0, 11))
        assert built == [1, 2]
        fisher.tabulate_t(net, np.linspace(0.0, 50.0, 11))
        assert built == [1, 2]

    def test_split_two_confirms_a_sharp_sensor(self, monkeypatch):
        """Real traffic, no faked values: sigma_n = 0.001 flags P = 10, and split 2
        confirms it with one extra kernel (measured: a move of 2.43e-8 relative,
        4.3e-14 from a split-32 kernel)."""
        network = model.homogeneous_network(1, sigma_n=0.001, bits=2)
        sensor, prior = network.sensors[0], network.prior
        built = self.count_builds(monkeypatch)
        kernel = fisher.InfoKernel(sensor, prior)
        p = quantcomm.bit_error_prob(10.0, sensor)
        gauss, error = kernel.expected_g(p, with_check=True)
        assert not fisher._within_tolerance(gauss, error)
        assert kernel.t_checked(10.0) == kernel.t(10.0)
        assert built == [1, 2]
        finer = kernel._finer.expected_g(p)
        assert abs(finer - gauss) <= 1e-7 * gauss
        fine = fisher.InfoKernel(sensor, prior, 32).expected_g(p)
        assert abs(finer - fine) <= 1e-12 * fine

    def test_gauss_value_is_expected_g(self, golden_network):
        for sensor in golden_network.sensors[:5]:
            kernel = fisher.InfoKernel(sensor, golden_network.prior)
            for power in (0.0, 0.7, 5.0, 30.0, 200.0):
                p = quantcomm.bit_error_prob(power, sensor)
                gauss, _ = kernel.expected_g(p, with_check=True)
                assert gauss == kernel.expected_g(p)
                assert kernel.t_checked(power) == kernel.t(power)

    def test_error_bounds_the_whole_rule_gap(self, golden_network):
        """The estimate is at least |Gauss sum - Gauss-Kronrod sum| over all panels."""
        sensor, prior = golden_network.sensors[3], golden_network.prior
        kernel = fisher.InfoKernel(sensor, prior)
        x, _, wx, y, wy = fisher._GK21
        quantizer = quantcomm.make_quantizer(sensor.bits, sensor.tau)
        edges = fisher._panel_edges(quantizer.boundaries, sensor.sigma_n, kernel.sigma_s)
        centers, halves = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        rule = [fisher._panel_nodes(nodes, weights, centers, halves, kernel.sigma_s)
                for nodes, weights in ((x, wx), (y, wy))]
        tables = [fisher._cell_tables(s, quantizer, sensor.sigma_n) for s, _ in rule]
        for power in (0.5, 5.0, 50.0, 215.3, 700.0):
            p = quantcomm.bit_error_prob(power, sensor)
            alpha = quantcomm._alpha_entries(sensor.bits, p)
            gauss, error = kernel.expected_g(p, with_check=True)
            kronrod = sum(fisher._kernel_sum(weights, cells, alpha)
                          for (_, weights), cells in zip(rule, tables))
            assert error >= abs(gauss - kronrod) - 1e-14 * gauss
            assert error > 0.0

    @staticmethod
    def check_flags(network, powers):
        """Points where the split-2 kernel moves rung 0 past the tolerance, and points where
        the Kronrod check flags it."""
        doubled_flags, kronrod_flags = set(), set()
        for i, sensor in enumerate(network.sensors):
            kernel = fisher.InfoKernel(sensor, network.prior)
            doubled = fisher.InfoKernel(sensor, network.prior, 2)
            scale = kernel.prefactor
            for power in powers:
                p = quantcomm.bit_error_prob(float(power), sensor)
                gauss, error = kernel.expected_g(p, with_check=True)
                value = scale * gauss
                if not fisher._within_tolerance(value, abs(scale * doubled.expected_g(p) - value)):
                    doubled_flags.add((i, float(power)))
                if not fisher._within_tolerance(value, scale * error):
                    kronrod_flags.add((i, float(power)))
        return doubled_flags, kronrod_flags

    @staticmethod
    def coarsen(monkeypatch):
        """A deliberately coarse layout: refinement at 12 sigma_n only, zone panels capped
        by the density alone."""
        monkeypatch.setattr(fisher, "_REFINE_OFFSETS", (12.0,))
        monkeypatch.setattr(fisher, "_ZONE_CAP_FEATURE", math.inf)

    def test_flags_every_point_the_doubled_rung_flags(self, monkeypatch, golden_network):
        """Where rung 0 and the split-2 rung disagree, the Kronrod check flags rung 0.

        A deliberately coarse layout supplies the disagreements (742 of the
        3,280 golden points); the default layout flags none of them, up to
        P = 1000.
        """
        log_grid = np.geomspace(50.0, 2e4, 120)
        powers = np.concatenate((0.5 * np.arange(1, 101), [100.0, 200.0, 400.0, 700.0],
                                 log_grid[log_grid <= 1000.0]))
        with monkeypatch.context() as patch:
            self.coarsen(patch)
            doubled_flags, kronrod_flags = self.check_flags(golden_network, powers)
        assert len(doubled_flags) > 500
        assert doubled_flags <= kronrod_flags
        assert self.check_flags(golden_network, powers) == (set(), set())

    def test_flags_every_point_the_doubled_rung_flags_fuzzed(self, monkeypatch):
        self.coarsen(monkeypatch)
        rng = np.random.default_rng(2024)
        doubled_total = 0
        for _ in range(40):
            net = random_network(rng)
            doubled_flags, kronrod_flags = self.check_flags(net, np.geomspace(40.0, 1000.0, 24))
            doubled_total += len(doubled_flags)
            assert doubled_flags <= kronrod_flags
        assert doubled_total > 0

    def test_high_snr_failure_still_raises(self, monkeypatch, golden_network):
        """A flagged value that split 2 does not confirm raises through t_k at high SNR too.

        The real kernel converges at P = 700 (see `test_golden_high_snr_shape`),
        so the failing confirmation is faked.
        """
        sensor, prior = golden_network.sensors[0], golden_network.prior
        assert math.isfinite(fisher.InfoKernel(sensor, prior).t_checked(700.0))
        self.fake_kernels(monkeypatch, 0.5, {1: 1.0, 2: 2.0})
        with pytest.raises(QuadratureNotConverged, match=r"power 700\.0 .* every panel in 2$"):
            fisher.t_k(700.0, sensor, prior)


class TestSharedKernel:
    """tabulate_t, trace_fim and the solvers read the network's kernel of each sensor,
    with a memo; t_k builds a kernel of its own."""

    @staticmethod
    def sweep_grids():
        return [solvers.make_power_grid(p_tot, 100) for p_tot in cli.DEFAULT_SWEEP_GRID]

    @pytest.mark.parametrize("which", ["golden", "fuzzed"])
    def test_sweep_tables_equal_fresh_kernels(self, which, fresh_golden):
        # All ten sweep grids in sweep order, so later grids read earlier values
        # from the memo; each entry must equal a fresh kernel's memo-free value
        # (`_guarded`), bit for bit.  One fresh kernel per sensor serves every
        # grid: its tables are fixed, and `_guarded` reads no memo.
        if which == "golden":
            networks = [fresh_golden]
        else:
            rng = np.random.default_rng(77)
            networks = [random_network(rng) for _ in range(3)]
        for network in networks:
            prior = network.prior
            kernels = [fisher.InfoKernel(sensor, prior) for sensor in network.sensors]
            for grid in self.sweep_grids():
                table = fisher.tabulate_t(network, grid)
                fresh = [[kernel._guarded(float(power)) for power in grid] for kernel in kernels]
                assert table.tolist() == fresh
            assert all(not kernel._checked for kernel in kernels)
            distinct = {float(power) for grid in self.sweep_grids() for power in grid}
            for kernel in fisher._kernels(network, network.sensors):
                assert set(kernel._checked) == distinct
        assert len(distinct) == 493

    def test_memo_is_capped(self, reference_sensor, default_prior):
        kernel = fisher.InfoKernel(reference_sensor, default_prior)
        powers = np.linspace(0.0, 60.0, 10_000).tolist()
        values, sizes = [], []
        for power in powers:
            values.append(kernel.t_checked(power))
            sizes.append(len(kernel._checked))
        assert max(sizes) == fisher._CHECKED_CAP
        fresh = fisher.InfoKernel(reference_sensor, default_prior)
        assert [fresh.t_checked(power) for power in powers[::7]] == values[::7]
        # The first powers were dropped from the memo; checked again, they agree.
        assert powers[0] not in kernel._checked
        assert [kernel.t_checked(power) for power in powers[:50]] == values[:50]

    def test_bound_lookup_follows_the_memo_through_a_clear(self, monkeypatch, reference_sensor,
                                                           default_prior):
        # The sorted powers are emptied with the memo, so t_bound never
        # returns a dropped entry.
        monkeypatch.setattr(fisher, "_CHECKED_CAP", 5)
        kernel = fisher.InfoKernel(reference_sensor, default_prior)
        assert kernel.t_bound(0.0) is None
        values = {}
        for power in (9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0):
            values[power] = kernel.t_checked(power)
            assert kernel._powers == sorted(kernel._checked)
        assert kernel._powers == [2.0, 8.0]
        assert kernel.t_bound(8.5) is None and kernel.t_bound(9.0) is None
        assert kernel.t_bound(2.5) == kernel.t_bound(8.0) == values[8.0]
        assert kernel.t_bound(-0.0) == kernel.t_bound(2.0) == values[2.0]

    def test_twins_share_one_kernel_within_a_network_only(self, reference_sensor,
                                                          default_prior):
        twin = model.homogeneous_network(1).sensors[0]
        assert twin is not reference_sensor and twin == reference_sensor
        network = model.Network(sensors=(reference_sensor, twin), prior=default_prior)
        kernels = fisher._kernels(network, network.sensors)
        assert kernels[0] is kernels[1] and len(network._kernels) == 1
        assert fisher._kernels(network, [twin])[0] is kernels[0]
        other = model.Network(sensors=(twin,), prior=default_prior)
        assert other == model.Network(sensors=(reference_sensor,), prior=default_prior)
        assert fisher._kernels(other, other.sensors)[0] is not kernels[0]

    def test_only_the_kernels_asked_for_are_built(self, fresh_golden):
        selection, powers = np.zeros(fresh_golden.k), np.zeros(fresh_golden.k)
        selection[[3, 11]], powers[[3, 11]] = 1, 2.5
        fisher.trace_fim(powers, selection, fresh_golden)
        assert set(fresh_golden._kernels) == {fresh_golden.sensors[i] for i in (3, 11)}
        solvers.solve_power_allocation([0, 3], fresh_golden, 5.0)
        assert set(fresh_golden._kernels) == {fresh_golden.sensors[i] for i in (0, 3, 11)}

    def test_kernels_are_freed_with_their_network(self, golden_scenario_path):
        network = model.load_scenario(golden_scenario_path)
        solvers.solve_usu(network, 5.0)
        refs = [weakref.ref(kernel) for kernel in fisher._kernels(network, network.sensors)]
        assert all(ref() is not None for ref in refs)
        del network
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_bare_t_k_equals_the_network_kernel(self, fresh_golden):
        kernels = fisher._kernels(fresh_golden, fresh_golden.sensors)
        for sensor, kernel in zip(fresh_golden.sensors, kernels):
            for power in (0.0, 0.37, 5.0, 50.0):
                bare = fisher.t_k(power, sensor, fresh_golden.prior)
                assert repr(bare) == repr(kernel.t_checked(power))
            assert fisher.t_k_derivative(0.37, sensor, fresh_golden.prior) == kernel.t_prime(0.37)

    def test_not_converged_raises_on_every_call(self, monkeypatch, golden_network):
        sensor, prior = golden_network.sensors[1], golden_network.prior
        kernel = fisher.InfoKernel(sensor, prior)
        kernel.t_checked(5.0)
        # From here on every value is flagged, and split 2 confirms none.
        TestLadder.fake_kernels(monkeypatch, 0.5, {1: 1.0, 2: 2.0})
        for _ in range(2):
            with pytest.raises(QuadratureNotConverged, match=r"power 230\.0 "):
                kernel.t_checked(230.0)
            with pytest.raises(QuadratureNotConverged, match=r"power 230\.0 "):
                fisher.t_k(230.0, sensor, prior)
        assert 230.0 not in kernel._checked and 5.0 in kernel._checked

    @pytest.mark.parametrize("power", [math.nan, -1.0, -math.inf], ids=["nan", "negative", "-inf"])
    def test_bad_power_raises_after_values_are_memoized(self, power, reference_sensor,
                                                        default_prior):
        kernel = fisher.InfoKernel(reference_sensor, default_prior)
        for good in (0.0, 1.0, 7.5):
            kernel.t_checked(good)
        for _ in range(2):
            with pytest.raises(ValueError, match="power must be nonnegative"):
                kernel.t_checked(power)
            with pytest.raises(ValueError, match="power must be nonnegative"):
                fisher.t_k(power, reference_sensor, default_prior)
        assert all(key >= 0.0 for key in kernel._checked)

    def test_signed_zero_power(self, reference_sensor, default_prior):
        fresh = [fisher.InfoKernel(reference_sensor, default_prior).t_checked(zero)
                 for zero in (-0.0, 0.0)]
        assert fresh[0] == fresh[1]
        assert fisher.t_k(-0.0, reference_sensor, default_prior) \
            == fisher.t_k(0.0, reference_sensor, default_prior) == fresh[1]


# QUADPACK's dqk21 abscissae and weights (Piessens et al., 1983): the
# nonnegative half of the 21-point Kronrod extension of the 10-point
# Gauss-Legendre rule, in descending order; even entries (from 0) are
# Kronrod-only nodes, odd entries Gauss nodes.
QUADPACK_XGK21 = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
QUADPACK_WGK21 = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)


def _gauss_legendre_reference(order: int, mpmath):
    """Nodes (ascending) and weights of the order-point Gauss-Legendre rule, to 40 digits."""
    nodes, weights = [], []
    with mpmath.workdps(40):
        for k in range(order, 0, -1):
            x = mpmath.cos(mpmath.pi * (k - mpmath.mpf(0.25)) / (order + mpmath.mpf(0.5)))
            for _ in range(100):
                p_prev, p = mpmath.mpf(1), x
                for j in range(1, order):
                    p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
                slope = order * (x * p - p_prev) / (x * x - 1)
                step = p / slope
                x -= step
                if abs(step) < mpmath.mpf(10) ** -38:
                    break
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * slope * slope))
    return nodes, weights


def _ulps(values, reference) -> np.ndarray:
    """Each float's distance from the double nearest its reference, in that double's ulps."""
    nearest = np.array([float(r) for r in reference])
    return np.abs(np.asarray(values) - nearest) / np.spacing(np.abs(nearest))


class TestGaussKronrodRule:
    """`_GK21`, the rule on every panel: order 10, the order each test's id names."""

    @pytest.mark.parametrize("order", [10])
    def test_gauss_subset_is_the_gauss_legendre_rule(self, order):
        """Gauss nodes within 1 ulp of a 40-digit reference, and Gauss weights within
        2 ulp of leggauss's worst error; the Kronrod nodes interlace."""
        mpmath = pytest.importorskip("mpmath")
        from numpy.polynomial.legendre import leggauss

        x, w, _, y, _ = fisher._GK21
        ref_x, ref_w = _gauss_legendre_reference(order, mpmath)
        assert x.shape == w.shape == (order,) and x.dtype == w.dtype == np.float64
        assert np.max(_ulps(x, ref_x)) <= 1.0
        assert np.max(_ulps(w, ref_w)) <= np.max(_ulps(leggauss(order)[1], ref_w)) + 2.0
        assert y.size == order + 1
        nodes = np.sort(np.concatenate((x, y)))
        assert np.array_equal(nodes[1::2], x)  # Kronrod nodes interlace
        assert np.all(np.abs(y) < 1.0)

    @pytest.mark.parametrize("order", [10])
    def test_symmetric_bit_for_bit(self, order):
        x, w, wx, y, wy = fisher._GK21
        assert x.size == order
        for nodes in (x, y):
            assert np.array_equal(nodes, -nodes[::-1])
        for weights in (w, wx, wy):
            assert np.array_equal(weights, weights[::-1])

    @pytest.mark.parametrize("order", [10])
    def test_exact_on_monomials_to_degree_3n_plus_1(self, order):
        x, _, wx, y, wy = fisher._GK21
        assert x.size == order
        for degree in range(3 * order + 2):
            exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
            assert wx @ x ** degree + wy @ y ** degree == pytest.approx(exact, abs=4e-15)

    def test_order_10_matches_quadpack(self):
        x, _, wx, y, wy = fisher._GK21
        nodes = np.concatenate((x, y))
        weights = np.concatenate((wx, wy))
        half = np.argsort(-nodes)[:11]
        assert np.max(np.abs(nodes[half] - QUADPACK_XGK21)) <= 1e-15
        assert np.max(np.abs(weights[half] - QUADPACK_WGK21)) <= 1e-15

    def test_read_only(self):
        assert all(array.dtype == np.float64 and not array.flags.writeable
                   for array in fisher._GK21)


def _panel_edges_loop(boundaries, sigma_n, sigma_s, whole_line=False):
    """The panel layout written as loops, which fisher._panel_edges vectorizes.

    With whole_line, the same rules lay the panels over [-lim, lim] instead
    of [0, lim]: the layout of a rule that does not fold the even kernel.
    """
    lim = fisher._DENSITY_SPAN * sigma_s
    lo = -lim if whole_line else 0.0
    interior = boundaries[1:-1]
    edges = [lo, lim]
    for b in interior:
        if lo < b < lim:
            edges.append(b)
        for c in fisher._REFINE_OFFSETS:
            for e in (b - c * sigma_n, b + c * sigma_n):
                if lo < e < lim:
                    edges.append(e)
    edges = np.unique(np.asarray(edges))
    keep = np.concatenate(([True], np.diff(edges) > 1e-9 * max(lim, sigma_n)))
    edges = edges[keep]
    if edges[-1] != lim:
        edges = np.append(edges, lim)
    zone_lo = interior[0] - fisher._REFINE_OFFSETS[-1] * sigma_n if interior.size else math.inf
    zone_hi = interior[-1] + fisher._REFINE_OFFSETS[-1] * sigma_n if interior.size else -math.inf
    refined = [edges[0]]
    for left, right in zip(edges[:-1], edges[1:]):
        in_zone = right > zone_lo and left < zone_hi
        cap = min(fisher._ZONE_CAP_FEATURE * sigma_n, fisher._CAP_DENSITY * sigma_s) if in_zone \
            else fisher._CAP_DENSITY * sigma_s
        pieces = max(1, int(math.ceil((right - left) / cap)))
        step = (right - left) / pieces
        for i in range(1, pieces + 1):
            refined.append(left + i * step)
    return np.asarray(refined)


class TestPanelEdges:
    @pytest.mark.parametrize("which", ["golden", "fuzzed"])
    def test_bit_identical_to_the_loop(self, which, golden_network):
        if which == "golden":
            networks = [golden_network]
        else:
            rng = np.random.default_rng(2024)
            networks = [random_network(rng) for _ in range(30)]
        for network in networks:
            for sensor in network.sensors:
                sigma_s = fisher.InfoKernel(sensor, network.prior).sigma_s
                boundaries = quantcomm.make_quantizer(sensor.bits, sensor.tau).boundaries
                for scale in (1.0, 0.05, 20.0):  # strong and weak gains move the zone
                    args = (boundaries, sensor.sigma_n, scale * sigma_s)
                    edges, loop = fisher._panel_edges(*args), _panel_edges_loop(*args)
                    assert edges.dtype == loop.dtype and edges.tobytes() == loop.tobytes()
                    assert edges[0] == 0.0
                    assert edges[-1] == pytest.approx(fisher._DENSITY_SPAN * args[2], rel=1e-15)
                    assert np.all(np.diff(edges) > 0.0)

    @pytest.mark.parametrize("split", [2, 4, 32])
    @pytest.mark.parametrize("which", ["golden", "fuzzed"])
    def test_split_cuts_every_default_panel_evenly(self, which, split, golden_network):
        if which == "golden":
            networks = [golden_network]
        else:
            rng = np.random.default_rng(2024)
            networks = [random_network(rng) for _ in range(30)]
        for network in networks:
            for sensor in network.sensors:
                sigma_s = fisher.InfoKernel(sensor, network.prior).sigma_s
                boundaries = quantcomm.make_quantizer(sensor.bits, sensor.tau).boundaries
                args = (boundaries, sensor.sigma_n, sigma_s)
                default, edges = fisher._panel_edges(*args), fisher._panel_edges(*args, split)
                assert edges.size == split * (default.size - 1) + 1
                assert edges[0] == 0.0
                assert edges[-1] == pytest.approx(fisher._DENSITY_SPAN * sigma_s, rel=1e-15)
                assert np.all(np.diff(edges) > 0.0)
                # Every split-th edge is a default one, and the pieces between are equal.
                atol = 1e-14 * edges[-1]
                np.testing.assert_allclose(edges[::split], default, rtol=0.0, atol=atol)
                np.testing.assert_allclose(np.diff(edges), np.repeat(np.diff(default) / split, split),
                                           rtol=1e-12, atol=atol)

    def test_first_edge_is_zero_where_a_refinement_point_nearly_is(self):
        # A boundary 1e-12 above 0 is a near-duplicate of the edge at 0: the
        # filter drops the boundary and keeps 0.
        boundaries = np.array([-np.inf, 1e-12, np.inf])
        edges = fisher._panel_edges(boundaries, 1.0, 1.0)
        assert edges[0] == 0.0 and edges[1] > 1e-3
        assert edges[-1] == pytest.approx(fisher._DENSITY_SPAN, rel=1e-15)


def _table_networks(which, golden_network):
    if which == "golden":
        return [golden_network]
    rng = np.random.default_rng(2024)
    return [random_network(rng) for _ in range(30)]


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestNodeTables:
    @pytest.mark.parametrize("which", ["golden", "fuzzed"])
    def test_no_table_holds_a_subnormal(self, which, golden_network):
        # Subnormal operands put a product on the processor's slow path;
        # golden sensor 9's Gauss table held 62 before `_cell_tables` flushed them.
        networks = _table_networks(which, golden_network)
        tiny = np.finfo(float).tiny
        checked = 0
        for network in networks:
            for sensor in network.sensors:
                for split in (1, 2):  # rung 0 and its confirmation kernel
                    kernel = fisher.InfoKernel(sensor, network.prior, split)
                    for table in (kernel._cells, kernel._check_tables()[0]):
                        magnitudes = np.abs(table)
                        assert not np.any((magnitudes > 0.0) & (magnitudes < tiny))
                        checked += 1
        assert checked > 0

    @pytest.mark.parametrize("which", ["golden", "fuzzed"])
    def test_check_tables_are_one_table_over_both_rules(self, which, golden_network):
        # The check's table and weights, built after the Gauss ones, are the
        # bits of one `_panel_nodes` and one `_cell_tables` call over both
        # rules' nodes: [probabilities at the Gauss nodes; at the Kronrod-only
        # nodes; slopes at the Gauss nodes; at the Kronrod-only nodes].
        x, w, wx, y, wy = fisher._GK21
        n = x.size
        checked = 0
        for network in _table_networks(which, golden_network):
            for sensor in network.sensors:
                for split in (1, 2):
                    kernel = fisher.InfoKernel(sensor, network.prior, split)
                    quantizer = quantcomm.make_quantizer(sensor.bits, sensor.tau)
                    edges = fisher._panel_edges(quantizer.boundaries, sensor.sigma_n,
                                                kernel.sigma_s, split)
                    centers, halves = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
                    s, weights = fisher._panel_nodes(
                        np.concatenate((x, y)), np.concatenate(((w, wx), (wy, wy)), 1),
                        centers, halves, kernel.sigma_s)
                    s, (gauss, kronrod) = (s.reshape(centers.size, -1),
                                           weights.reshape(2, centers.size, -1))
                    both = fisher._cell_tables(np.concatenate((s[:, :n], s[:, n:]), axis=None),
                                               quantizer, sensor.sigma_n)
                    nodes, total = s[:, :n].size, s.size
                    cells, gap_weights, kronrod_weights = kernel._check_tables()
                    assert _same_bits(kernel._weights, gauss[:, :n].ravel())
                    assert _same_bits(kernel._cells, np.concatenate(
                        (both[:nodes], both[total:total + nodes])))
                    assert _same_bits(cells, both)
                    assert _same_bits(gap_weights, (gauss[:, :n] - kronrod[:, :n])[:, None, :])
                    assert _same_bits(kronrod_weights, gauss[:, n:][:, None, :])
                    checked += 1
        assert checked > 0

    def test_check_tables_built_once_on_the_first_checked_value(self, golden_network,
                                                                monkeypatch):
        # Only a checked value reads the Kronrod-only nodes: a fresh kernel
        # has no check table, t, t' and the slope kernel build none, and the
        # first checked value builds it with one more `_cell_tables` call.
        sensor = golden_network.sensors[3]
        built = []
        cell_tables = fisher._cell_tables

        def counted(s, quantizer, sigma_n):
            built.append(s.size)
            return cell_tables(s, quantizer, sigma_n)

        monkeypatch.setattr(fisher, "_cell_tables", counted)
        kernel = fisher.InfoKernel(sensor, golden_network.prior)
        gauss = kernel._weights.size
        assert built == [gauss]
        for power in (0.0, 0.5, 5.0, 50.0):
            kernel.t(power)
            kernel.t_prime(power)
            kernel.expected_g_slope(quantcomm.bit_error_prob(power, sensor))
        assert built == [gauss]
        assert kernel._check_cells is kernel._gap_weights is kernel._kronrod_weights is None
        kernel.t_checked(5.0)
        tables = kernel._check_tables()
        assert built == [gauss, gauss // 10 * 11]
        for power in (0.0, 0.5, 50.0):
            kernel.t_checked(power)
        assert built == [gauss, gauss // 10 * 11]
        assert all(a is b for a, b in zip(kernel._check_tables(), tables))


def _whole_line_rule(sensor, prior):
    """Gauss weights and cell tables of the same rule over the whole line [-lim, lim]."""
    sigma_s = fisher.InfoKernel(sensor, prior).sigma_s
    quantizer = quantcomm.make_quantizer(sensor.bits, sensor.tau)
    edges = _panel_edges_loop(quantizer.boundaries, sensor.sigma_n, sigma_s, whole_line=True)
    x, w = fisher._GK21[:2]
    s, weights = fisher._panel_nodes(x, w, 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges),
                                     sigma_s)
    # _panel_nodes doubles the density for the half line; the whole line takes it once.
    return 0.5 * weights, quantcomm._cell_tables(s, quantizer, sensor.sigma_n)


def _fold_and_whole_line(sensor, prior, p_values):
    """(expected_g, its whole-line value, expected_g_slope, its whole-line value) at each p."""
    kernel = fisher.InfoKernel(sensor, prior)
    weights, cells = _whole_line_rule(sensor, prior)
    assert kernel._weights.size * 2 == weights.size
    rows = []
    for p in p_values:
        alpha = quantcomm._alpha_entries(sensor.bits, p)
        slope = quantcomm._alpha_slope(sensor.bits, p)
        rows.append((kernel.expected_g(p), fisher._kernel_sum(weights, cells, alpha),
                     kernel.expected_g_slope(p), fisher._kernel_sum(weights, cells, alpha, slope)))
    return rows


class TestHalfLineFold:
    """The kernel is even in s, so the half-line rule equals the whole-line one."""

    @pytest.mark.parametrize("which", ["golden", "fuzzed"])
    def test_matches_the_whole_line_rule(self, which, golden_network):
        if which == "golden":
            networks = [golden_network]
        else:
            rng = np.random.default_rng(2024)
            networks = [random_network(rng) for _ in range(30)]
        p_values = np.geomspace(1e-8, 0.49, 25).tolist()
        for network in networks:
            for sensor in network.sensors:
                for g, whole_g, slope, whole_slope in _fold_and_whole_line(
                        sensor, network.prior, p_values):
                    assert abs(g - whole_g) <= 1e-12 * whole_g
                    assert abs(slope - whole_slope) <= 1e-12 * abs(whole_slope)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(
        bits=st.integers(1, 4),
        tau=st.floats(0.05, 20.0),
        sigma_n=st.floats(0.05, 5.0),
        gain=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2).filter(
            lambda g: abs(g[0]) + abs(g[1]) > 1e-3),
        factor=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
        ridge=st.floats(0.05, 2.0),
        p=st.floats(1e-8, 0.49),
    )
    def test_matches_the_whole_line_rule_property(self, bits, tau, sigma_n, gain, factor,
                                                  ridge, p):
        base = np.reshape(factor, (2, 2))
        prior = model.make_prior(base @ base.T + ridge * np.eye(2))
        sensor = model.Sensor(gain=np.array(gain), sigma_n=sigma_n, h_mag=1.0, sigma_nu=1.0,
                              bits=bits, tau=tau)
        [(g, whole_g, slope, whole_slope)] = _fold_and_whole_line(sensor, prior, [p])
        assert abs(g - whole_g) <= 1e-12 * whole_g
        # Near p = 0 the slope's level terms, each the size of the kernel's,
        # cancel to first order, so its rounding is relative to the kernel.
        assert abs(slope - whole_slope) <= 1e-12 * max(abs(whole_slope), whole_g)


class TestHighSnr:
    def test_golden_sensor_15_matches_a_fine_rung(self, golden_network):
        sensor, prior = golden_network.sensors[15], golden_network.prior
        fine = fisher.InfoKernel(sensor, prior, 32).t(226.44)
        value = fisher.InfoKernel(sensor, prior).t_checked(226.44)
        assert abs(value - fine) <= 1e-9 * fine

    def test_golden_high_snr_shape(self, golden_network):
        """Over [10, 1e6], t is nondecreasing and t' finite and nonincreasing."""
        powers = np.geomspace(10.0, 1e6, 200).tolist()
        for sensor in golden_network.sensors:
            kernel = fisher.InfoKernel(sensor, golden_network.prior)
            values = [kernel.t_checked(power) for power in powers]
            slopes = [kernel.t_prime(power) for power in powers]
            assert np.all(np.diff(values) >= 0.0)
            assert np.all(np.isfinite(slopes)) and np.all(np.diff(slopes) <= 0.0)


class TestZeroSlope:
    """t' at p = 1/2 is its P -> 0 limit, one product with the Gauss tables."""

    @pytest.mark.parametrize("index, expected", [
        (3, 2.3981934545), (0, 0.149214498463), (11, 2.05475017202),
    ])
    def test_golden_values(self, golden_network, index, expected):
        kernel = fisher.InfoKernel(golden_network.sensors[index], golden_network.prior)
        assert abs(kernel.t_prime(0.0) - expected) <= 1e-10

    def test_limit_of_slopes_and_secants(self, golden_network):
        # t' and t / P tend to the limit as P -> 0; at 1e-12 and 1e-9 the
        # worst gap over golden is about 1.6e-10 relative.
        for sensor in golden_network.sensors:
            kernel = fisher.InfoKernel(sensor, golden_network.prior)
            limit = kernel.t_prime(0.0)
            for power in (1e-12, 1e-9):
                assert abs(kernel.t_prime(power) / limit - 1.0) <= 1e-9
                assert abs(kernel.t(power) / power / limit - 1.0) <= 1e-9

    def test_split_kernel_agrees(self, golden_network):
        sensor, prior = golden_network.sensors[3], golden_network.prior
        coarse = fisher.InfoKernel(sensor, prior).t_prime(0.0)
        assert abs(fisher.InfoKernel(sensor, prior, 4).t_prime(0.0) - coarse) <= 1e-9 * coarse

    def test_exact_where_p_rounds_to_one_half(self, golden_network):
        # At 1e-35 p is 1/2 in double precision, where the chain rule would be
        # 0 times a huge dp/dP; the limit is returned instead.
        kernel = fisher.InfoKernel(golden_network.sensors[3], golden_network.prior)
        assert quantcomm.bit_error_prob(1e-35, kernel.sensor) == 0.5
        assert kernel.t_prime(1e-35) == kernel.t_prime(0.0)


class TestTkDerivative:
    def test_zero_power_is_the_zero_slope(self, reference_sensor, default_prior):
        kernel = fisher.InfoKernel(reference_sensor, default_prior)
        assert fisher.t_k_derivative(0.0, reference_sensor, default_prior) \
            == kernel.t_prime(0.0) > 0.0

    def test_finite_difference_reference_points(self, reference_sensor, default_prior):
        kernel = fisher.InfoKernel(reference_sensor, default_prior)
        for power in (1.0, 5.0, 20.0):
            analytic = fisher.t_k_derivative(power, reference_sensor, default_prior)
            h = 1e-4 * power
            fd = (kernel.t(power + h) - kernel.t(power - h)) / (2 * h)
            assert abs(analytic - fd) / abs(fd) < 1e-4

    def test_finite_difference_randomized(self):
        results = verify.check_grad(trials=20, seed=verify.DEFAULT_SEED)
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


_NAN = float("nan")
_TWO = model.homogeneous_network(2)


def _nan_power_allocation():
    """An allocation whose stored objective is what a NaN power used to score (t = 0)."""
    objective = fisher.trace_fim([0.0, 2.0], [1, 1], _TWO)
    alloc = solvers._finish([1, 1], [_NAN, 2.0], objective, "ufa", 1, ())
    solvers.verify_allocation(alloc, _TWO, 5.0)


@pytest.mark.parametrize("call", [
    lambda: quantcomm.bit_error_prob(_NAN, _TWO.sensors[0]),
    lambda: fisher.InfoKernel(_TWO.sensors[0], _TWO.prior).t_prime(_NAN),
    lambda: fisher.InfoKernel(_TWO.sensors[0], _TWO.prior).t_checked(_NAN),
    lambda: fisher.t_k(_NAN, _TWO.sensors[0], _TWO.prior),
    lambda: fisher.trace_fim([_NAN, 2.0], [1, 1], _TWO),
    lambda: fisher.tabulate_t(_TWO, [0.0, _NAN]),
    _nan_power_allocation,
], ids=["bit_error_prob", "t_prime", "t_checked", "t_k", "trace_fim", "tabulate_t",
        "verify_allocation"])
def test_nan_power_rejected(call):
    with pytest.raises(ValueError, match="power must be nonnegative, got nan"):
        call()
