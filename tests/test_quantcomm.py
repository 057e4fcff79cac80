import math

import numpy as np
import pytest

from fimalloc import model, quantcomm
from conftest import half_erfcx_by_rows, numpy_quantizer, random_network


def binomial_sigma(p, trials):
    return np.sqrt(np.maximum(p * (1.0 - p), 1e-300) / trials)


class TestMakeQuantizer:
    def test_three_bit_reference(self, reference_sensor):
        q = quantcomm.make_quantizer(3, reference_sensor.tau)
        assert q.step == pytest.approx(2.0 * reference_sensor.tau / 7.0, rel=1e-12)
        assert q.levels[0] == pytest.approx(-reference_sensor.tau, rel=1e-12)
        assert q.levels[-1] == pytest.approx(reference_sensor.tau, rel=1e-12)

    def test_one_bit(self):
        q = quantcomm.make_quantizer(1, 1.0)
        assert q.m == 2
        assert q.step == pytest.approx(2.0)
        np.testing.assert_allclose(q.levels, [-1.0, 1.0])
        np.testing.assert_allclose(q.boundaries[1:-1], [0.0])

    def test_two_bit(self):
        q = quantcomm.make_quantizer(2, 3.0)
        assert q.step == pytest.approx(2.0)
        np.testing.assert_allclose(q.levels, [-3.0, -1.0, 1.0, 3.0])
        np.testing.assert_allclose(q.boundaries[1:-1], [-2.0, 0.0, 2.0])

    def test_boundaries_are_cell_midpoints(self):
        for bits in (1, 2, 3, 4):
            q = quantcomm.make_quantizer(bits, 2.7)
            mids = 0.5 * (q.levels[:-1] + q.levels[1:])
            np.testing.assert_allclose(q.boundaries[1:-1], mids, rtol=1e-12)
            assert np.all(np.diff(q.boundaries) > 0)

    def test_nearest_level_matches_boundary_interval(self):
        rng = np.random.default_rng(4)
        q = quantcomm.make_quantizer(3, 5.0)
        x = rng.uniform(-7.0, 7.0, size=10_000)
        nearest = np.argmin(np.abs(x[:, None] - q.levels[None, :]), axis=1)
        interval = np.searchsorted(q.boundaries[1:-1], x, side="right")
        np.testing.assert_array_equal(nearest, interval)

    def test_levels_and_boundaries_are_the_numpy_formulas(self):
        # Built from Python floats, which round as float64 arrays do.
        rng = np.random.default_rng(38)
        taus = np.concatenate((10.0 ** rng.uniform(-3.0, 3.0, 8), rng.uniform(0.1, 30.0, 8)))
        for bits in range(1, 11):
            for tau in taus.tolist():
                q, reference = quantcomm.make_quantizer(bits, tau), numpy_quantizer(bits, tau)
                assert q.step == reference.step
                for got, want in ((q.levels, reference.levels),
                                  (q.boundaries, reference.boundaries)):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (bits, tau)
                    assert not got.flags.writeable


class TestBeta:
    def test_sums_to_one_and_nonnegative(self, reference_sensor):
        q = quantcomm.make_quantizer(reference_sensor.bits, reference_sensor.tau)
        for s in (-4.0, -0.3, 0.0, 1.7, 9.0):
            b = quantcomm.beta(s, q, reference_sensor.sigma_n)
            assert np.all(b >= 0.0)
            assert abs(b.sum() - 1.0) < 1e-12

    def test_symmetry_at_zero(self):
        q = quantcomm.make_quantizer(3, 4.0)
        b = quantcomm.beta(0.0, q, 0.8)
        np.testing.assert_allclose(b, b[::-1], rtol=0, atol=1e-15)

    def test_one_bit_median_split(self):
        q = quantcomm.make_quantizer(1, 2.0)
        np.testing.assert_allclose(quantcomm.beta(0.0, q, 1.3), [0.5, 0.5])

    def test_matches_simulation(self, reference_sensor):
        trials = 200_000
        q = quantcomm.make_quantizer(reference_sensor.bits, reference_sensor.tau)
        analytic = quantcomm.beta(1.0, q, reference_sensor.sigma_n)
        empirical = quantcomm.mc_beta_oracle(1.0, reference_sensor, trials, seed=90)
        sigma = binomial_sigma(analytic, trials)
        assert np.all(np.abs(empirical - analytic) <= 4.0 * sigma)


class TestBetaDot:
    def test_telescoping_sum(self):
        q = quantcomm.make_quantizer(3, 5.0)
        for s in (-2.0, 0.0, 0.4, 11.0):
            assert abs(quantcomm.beta_dot(s, q, 1.0).sum()) < 1e-12

    def test_odd_symmetry_at_zero(self):
        q = quantcomm.make_quantizer(2, 3.0)
        bd = quantcomm.beta_dot(0.0, q, 1.1)
        np.testing.assert_allclose(bd, -bd[::-1], atol=1e-15)

    def test_finite_difference_identity(self):
        # beta_dot equals sigma * sqrt(2 pi) times the slope of beta.
        q = quantcomm.make_quantizer(2, 3.0)
        sigma = 1.0
        h = 1e-5 * sigma
        s = 0.5
        fd = (quantcomm.beta(s + h, q, sigma) - quantcomm.beta(s - h, q, sigma)) / (2 * h)
        scaled = sigma * math.sqrt(2.0 * math.pi) * fd
        np.testing.assert_allclose(quantcomm.beta_dot(s, q, sigma), scaled, atol=1e-6)

    def test_finite_difference_identity_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            bits = int(rng.integers(1, 4))
            tau = float(rng.uniform(0.5, 8.0))
            sigma = float(rng.uniform(0.3, 2.0))
            s = float(rng.uniform(-1.5 * tau, 1.5 * tau))
            q = quantcomm.make_quantizer(bits, tau)
            h = 1e-5 * sigma
            fd = (quantcomm.beta(s + h, q, sigma) - quantcomm.beta(s - h, q, sigma)) / (2 * h)
            scaled = sigma * math.sqrt(2.0 * math.pi) * fd
            np.testing.assert_allclose(quantcomm.beta_dot(s, q, sigma), scaled, atol=1e-6)


class TestBadCellInputs:
    """beta and beta_dot share one check of s and sigma_n, which names the input."""

    @pytest.mark.parametrize("function", [quantcomm.beta, quantcomm.beta_dot])
    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_nonfinite_s(self, function, s):
        with pytest.raises(ValueError, match=f"^s must be finite, got {s}$"):
            function(s, quantcomm.make_quantizer(3, 2.0), 1.0)

    @pytest.mark.parametrize("function", [quantcomm.beta, quantcomm.beta_dot])
    @pytest.mark.parametrize("sigma_n", [0.0, -1.0, math.nan, math.inf])
    def test_sigma_n_not_positive_and_finite(self, function, sigma_n):
        with pytest.raises(ValueError, match=f"^sigma_n must be positive and finite, got {sigma_n}$"):
            function(0.5, quantcomm.make_quantizer(3, 2.0), sigma_n)


class TestBitErrorProb:
    def test_zero_power(self, reference_sensor):
        assert quantcomm.bit_error_prob(0.0, reference_sensor) == pytest.approx(0.5)

    def test_reference_point(self, reference_sensor):
        # Power chosen so the detection argument is exactly 1: p = Q(1).
        power = reference_sensor.bits * reference_sensor.sigma_nu ** 2 / reference_sensor.h_mag ** 2
        p = quantcomm.bit_error_prob(power, reference_sensor)
        assert p == pytest.approx(0.15865525393145707, rel=1e-12)

    def test_tail_decay(self, reference_sensor):
        assert quantcomm.bit_error_prob(1e6, reference_sensor) < 1e-12

    def test_strictly_decreasing(self, reference_sensor):
        grid = np.linspace(0.0, 60.0, 40)
        values = [quantcomm.bit_error_prob(float(p), reference_sensor) for p in grid]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 0.5 for v in values)


    def test_matches_mpmath(self, golden_network, reference_sensor):
        # Against Q at the double z itself, so the test measures the function,
        # not the conditioning of z's own rounding.  The rounding of z / sqrt 2
        # alone would cost up to z^2 * 2^-53, 1.5e-13 at z = 37.
        mpmath = pytest.importorskip("mpmath")
        sensors = [reference_sensor, *golden_network.sensors]
        rng = np.random.default_rng(2024)
        for _ in range(5):
            sensors += random_network(rng).sensors
        powers = [0.0, *np.geomspace(1e-2, 1e6, 120)]
        with mpmath.workdps(50):
            for sensor in sensors:
                for power in powers:
                    p = quantcomm.bit_error_prob(float(power), sensor)
                    exact = mpmath.ncdf(-quantcomm._link_snr(float(power), sensor))
                    if exact >= 1e-300:
                        assert abs(p - exact) <= 1e-14 * exact, (sensor, power)
                    else:
                        assert 0.0 <= p <= 1e-300


class TestPhi:
    """The vectorized normal CDF behind the cell probabilities."""

    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        z = np.concatenate((np.linspace(-38.0, 8.3, 2001), rng.uniform(-38.0, 8.3, 1000),
                            rng.uniform(-2.0, 2.0, 200)))
        phi = quantcomm._phi(z)
        with mpmath.workdps(50):
            for value, point in zip(phi.tolist(), z.tolist()):
                exact = mpmath.ncdf(point)
                if exact >= 1e-300:
                    assert abs(value - exact) <= 1e-13 * exact, point
                else:
                    assert 0.0 <= value <= 1e-300, point

    @pytest.mark.parametrize("shape", [(), (7000,), (7, 1000)])
    def test_half_erfcx_is_the_per_row_horner_form(self, shape):
        # One gather of every coefficient row, then Horner on the rows: the
        # same bits as a gather per row, at 0, huge values and inf too.
        rng = np.random.default_rng(39)
        a = np.concatenate((rng.uniform(0.0, 40.0, 3000), 10.0 ** rng.uniform(-300.0, 300.0, 3000),
                            rng.uniform(0.0, 2.0, 988),
                            [0.0, 5e-324, 1e-300, 1.0, 1e10, 1e300, np.finfo(float).max, np.inf,
                             0.0, 37.0, 200.0, np.inf]))
        a = a[:1] if shape == () else a
        a = a.reshape(shape)
        got, want = quantcomm._half_erfcx(a), half_erfcx_by_rows(a)
        assert np.shape(got) == np.shape(want) == shape
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_zero_is_one_half(self):
        assert quantcomm._phi(0.0) == 0.5
        assert quantcomm._phi(-0.0) == 0.5
        assert quantcomm._phi(np.zeros(3)).tolist() == [0.5] * 3

    def test_infinities(self):
        assert quantcomm._phi([-np.inf, np.inf]).tolist() == [0.0, 1.0]

    def test_reflection(self):
        z = np.concatenate((np.linspace(0.0, 40.0, 40001),
                            np.random.default_rng(12).uniform(0.0, 10.0, 5000)))
        assert np.all(np.abs(quantcomm._phi(z) + quantcomm._phi(-z) - 1.0) <= 2.0 ** -53)

    def test_nondecreasing(self):
        phi = quantcomm._phi(np.linspace(-40.0, 10.0, 500_001))
        assert np.all(np.diff(phi) >= 0.0)
        assert phi[0] == 0.0 and phi[-1] == 1.0

    def test_cell_tables_stack_probabilities_over_slopes(self, reference_sensor):
        # The fused build is bit for bit the two tables written out apart: a
        # cell wholly above s (z_{l-1} > 0) is the difference of upper tails
        # Phi(-z_{l-1}) - Phi(-z_l), any other the difference of CDF values.
        q = quantcomm.make_quantizer(reference_sensor.bits, reference_sensor.tau)
        sigma = reference_sensor.sigma_n
        s = np.linspace(-9.0, 9.0, 301)
        z = (q.boundaries[None, :] - s[:, None]) / sigma
        cdf = np.concatenate((np.zeros((s.size, 1)), quantcomm._phi(z[:, 1:-1]),
                              np.ones((s.size, 1))), axis=1)
        tail = quantcomm._phi(-z)
        probabilities = np.where(z[:, :-1] > 0.0, tail[:, :-1] - tail[:, 1:],
                                 np.diff(cdf, axis=1))
        g = np.zeros_like(z)
        g[:, 1:-1] = np.exp(-0.5 * z[:, 1:-1] * z[:, 1:-1])
        cells = quantcomm._cell_tables(s, q, sigma)
        assert cells.shape == (2 * s.size, q.m)
        assert np.any(z[:, 1:-1] > 0.0) and np.any(z[:, 1:-1] < 0.0)
        assert cells[:s.size].tobytes() == probabilities.tobytes()
        assert cells[s.size:].tobytes() == (g[:, :-1] - g[:, 1:]).tobytes()

    def test_cells_far_above_s_keep_relative_accuracy(self):
        # Cells far above the observation have probabilities far below the
        # 1e-16 rounding of CDF values near 1; each must still be within
        # 1e-13 relative of mpmath wherever it is at least 1e-300.
        mpmath = pytest.importorskip("mpmath")
        q = quantcomm.make_quantizer(3, 3.5)
        sigma = 0.25
        s = np.linspace(0.0, 3.0, 13)
        cells = quantcomm._cell_tables(s, q, sigma)[:s.size]
        with mpmath.workdps(50):
            for row, point in zip(cells, s.tolist()):
                cdf = [mpmath.ncdf((mpmath.mpf(b) - point) / sigma) for b in q.boundaries.tolist()]
                for l, value in enumerate(row.tolist()):
                    exact = cdf[l + 1] - cdf[l]
                    if exact >= 1e-300:
                        assert abs(value - exact) <= 1e-13 * exact, (point, l)


class TestAlphaMatrix:
    def test_uniform_confusion_at_zero_power(self, reference_sensor):
        entries = quantcomm.alpha_matrix(0.0, reference_sensor)
        np.testing.assert_allclose(entries, np.full((8, 8), 0.125), rtol=1e-12)

    def test_identity_at_large_power(self, reference_sensor):
        entries = quantcomm.alpha_matrix(1e9, reference_sensor)
        np.testing.assert_allclose(entries, np.eye(8), atol=1e-12)

    def test_doubly_stochastic_and_symmetric(self, reference_sensor):
        for power in [0.0] + list(np.geomspace(1e-3, 1e4, 12)):
            entries = quantcomm.alpha_matrix(float(power), reference_sensor)
            np.testing.assert_allclose(entries.sum(axis=0), 1.0, atol=1e-12)
            np.testing.assert_allclose(entries.sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(entries, entries.T, rtol=1e-12)

    def test_diagonal_monotone_in_power(self, reference_sensor):
        grid = np.geomspace(1e-2, 1e4, 15)
        diags = [np.diag(quantcomm.alpha_matrix(float(p), reference_sensor))
                 for p in grid]
        for a, b in zip(diags, diags[1:]):
            assert np.all(b >= a)

    def test_entries_and_slope_match_elementwise_formulas(self):
        # The per-distance construction must reproduce the matrix-wide
        # formulas bit for bit, down to p = 1e-300 and at p = 0.
        ps = np.concatenate(([0.0, 1e-300, 0.5], np.geomspace(1e-300, 0.5, 400)))
        for bits in range(1, 6):
            dist = quantcomm._hamming_matrix(bits)
            for p in ps:
                p = float(p)
                entries = p ** dist * (1.0 - p) ** (bits - dist)
                rising = dist * p ** np.maximum(dist - 1, 0) * (1.0 - p) ** (bits - dist)
                falling = (bits - dist) * p ** dist * (1.0 - p) ** np.maximum(bits - dist - 1, 0)
                assert np.array_equal(quantcomm._alpha_entries(bits, p), entries)
                assert np.array_equal(quantcomm._alpha_slope(bits, p), rising - falling)
        assert not quantcomm._alpha_slope(3, 0.1).flags.writeable

    def test_hamming_matrix_is_the_per_pair_popcount(self):
        for bits in range(1, model.MAX_BITS + 1):
            m = 2 ** bits
            dist = quantcomm._hamming_matrix(bits)
            reference = [[bin(i ^ j).count("1") for j in range(m)] for i in range(m)]
            assert dist.dtype.kind == "i" and np.array_equal(dist, reference)
            assert not dist.flags.writeable

    def test_matches_simulation(self, reference_sensor):
        trials = 50_000
        power = 3.0 / 0.49
        analytic = quantcomm.alpha_matrix(power, reference_sensor)
        empirical = quantcomm.mc_alpha_oracle(power, reference_sensor, trials, seed=55)
        sigma = binomial_sigma(analytic, trials)
        assert np.all(np.abs(empirical - analytic) <= 4.0 * sigma)


class TestMonteCarloOracles:
    def test_alpha_oracle_fair_coin(self, default_prior):
        gain = np.array([0.6, 0.8])
        sensor = model.Sensor(gain=gain, sigma_n=1.0, h_mag=0.7, sigma_nu=1.0,
                              bits=1, tau=model.make_tau(gain, 1.0, default_prior))
        freq = quantcomm.mc_alpha_oracle(0.0, sensor, 1_000_000, seed=2)
        assert np.all(np.abs(freq - 0.5) < 0.002)

    def test_alpha_oracle_error_free(self, reference_sensor):
        freq = quantcomm.mc_alpha_oracle(1e9, reference_sensor, 2000, seed=3)
        np.testing.assert_array_equal(freq, np.eye(8))

    def test_alpha_oracle_columns_sum_to_one(self, reference_sensor):
        # Power-of-two trial count keeps count/trials exact in binary floats,
        # so the column sums come out exactly 1.
        freq = quantcomm.mc_alpha_oracle(6.122, reference_sensor, 4096, seed=4)
        assert np.all(freq.sum(axis=0) == 1.0)

    def test_beta_oracle_half_split(self, default_prior):
        gain = np.array([0.6, 0.8])
        sensor = model.Sensor(gain=gain, sigma_n=1.0, h_mag=0.7, sigma_nu=1.0,
                              bits=1, tau=model.make_tau(gain, 1.0, default_prior))
        trials = 400_000
        freq = quantcomm.mc_beta_oracle(0.0, sensor, trials, seed=8)
        assert np.all(np.abs(freq - 0.5) <= 4.0 * binomial_sigma(np.array(0.5), trials))

    def test_beta_oracle_saturation(self, reference_sensor):
        freq = quantcomm.mc_beta_oracle(10.0 * reference_sensor.tau, reference_sensor,
                                        2000, seed=9)
        assert freq[-1] == 1.0

    def test_oracles_deterministic(self, reference_sensor):
        a = quantcomm.mc_alpha_oracle(2.0, reference_sensor, 3000, seed=77)
        b = quantcomm.mc_alpha_oracle(2.0, reference_sensor, 3000, seed=77)
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("bits", [1, 2, 3])
@pytest.mark.parametrize("power", [0.05, 0.7, 4.0, 25.0])
def test_bit_error_slope_matches_finite_difference(bits, power):
    sensor = model.Sensor(gain=[0.6, 0.8], sigma_n=1.0, h_mag=0.7, sigma_nu=1.0,
                          bits=bits, tau=3.0)
    h = 1e-5 * power
    fd = (quantcomm.bit_error_prob(power + h, sensor)
          - quantcomm.bit_error_prob(power - h, sensor)) / (2.0 * h)
    slope = quantcomm._bit_error_slope(power, sensor)
    assert slope < 0.0
    assert slope == pytest.approx(fd, rel=1e-6)
