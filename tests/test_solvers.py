import dataclasses
import heapq
import inspect
import math
import re
import sys
from unittest import mock

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from fimalloc import cli, fisher, model, solvers, verify
from fimalloc.errors import (ConcavityViolation, DimensionMismatch, GridMismatch, NoConvergence,
                             TooLarge)
from conftest import make_slope_rise, random_network


def _curves(sensors, prior, p_tot):
    """_shared_curves over the kernels of a network of these sensors, as greedy builds them."""
    network = model.Network(sensors=tuple(sensors), prior=prior)
    return solvers._shared_curves(fisher._kernels(network, network.sensors), p_tot)


class TestPowerGrid:
    def test_samples_are_exact_multiples(self):
        grid = solvers.make_power_grid(30.0, 100)
        for j in range(101):
            assert grid[j] == j * 30.0 / 100
        assert grid[0] == 0.0

    def test_shared_powers_are_equal_floats(self):
        # j * p_tot is exact here, so each sample is correctly rounded: a power
        # two budgets share, and ufa's and usu's p_tot / i, are the same float.
        shared = (solvers.make_power_grid(15.0, 100)[7], solvers.make_power_grid(35.0, 100)[3])
        assert shared == (1.05, 1.05)
        grid = solvers.make_power_grid(35.0, 100)
        for i in (1, 2, 4, 5, 10, 20, 25, 50, 100):
            assert grid[100 // i] == 35.0 / i

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            solvers.make_power_grid(0.0, 10)
        with pytest.raises(ValueError):
            solvers.make_power_grid(5.0, 0)

    @pytest.mark.parametrize("n, message", [
        (2.5, "n must be an integer, got 2.5"),
        (True, "n must be an integer, got True"),
        (0, "n must be >= 1, got 0"),
    ])
    def test_rejects_a_bad_point_count(self, n, message):
        # A fractional n once gave [0, 2, 4, 6] for p_tot 5, a grid past the budget.
        with pytest.raises(ValueError, match=re.escape(message)):
            solvers.make_power_grid(5.0, n)

    def test_accepts_an_integral_count(self):
        grid = solvers.make_power_grid(5.0, 4.0)
        assert grid.tolist() == solvers.make_power_grid(5.0, np.int64(4)).tolist() \
            == [0.0, 1.25, 2.5, 3.75, 5.0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p_tot, n", [(1e307, 100), (1.7e308, 8), (sys.float_info.max, 100)])
    def test_a_budget_past_dbl_max_over_n_stays_finite(self, p_tot, n):
        # n * p_tot overflows here: j * p_tot once overflowed to inf for most j.
        grid = solvers.make_power_grid(p_tot, n)
        assert np.all(np.isfinite(grid)) and grid[-1] == p_tot
        # Scaling by any power of two is exact, so the samples are j * p_tot / n
        # with the same two roundings.
        assert grid.tolist() == (np.arange(n + 1) * (p_tot / 1024.0) / n * 1024.0).tolist()

    def test_budgets_whose_top_product_is_finite_keep_their_bits(self):
        # Up to the largest budget whose n * p_tot is finite (DBL_MAX / n
        # itself overflows at n = 3), the samples are j * p_tot / n, also
        # where a scaled budget would be subnormal (1e-307 / 128).
        for n in (1, 3, 8, 100):
            largest = sys.float_info.max / n
            while math.isinf(n * largest):
                largest = math.nextafter(largest, 0.0)
            for p_tot in (5.0, 1e-307, largest):
                assert solvers.make_power_grid(p_tot, n).tolist() == \
                    (np.arange(n + 1) * p_tot / n).tolist()


class TestBudgetCheck:
    @pytest.mark.parametrize("p_tot", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", sorted(solvers.SOLVERS))
    def test_every_solver_rejects_a_bad_budget(self, name, p_tot):
        network = model.generate_deployment(11, 3)
        with pytest.raises(ValueError, match="p_tot must be positive and finite"):
            solvers.SOLVERS[name](network, p_tot, 6, solvers.DEFAULT_EPS0)

    @pytest.mark.parametrize("p_tot", [math.nan, math.inf])
    def test_split_and_table_entry_points_reject_a_bad_budget(self, p_tot):
        with pytest.raises(ValueError, match="p_tot must be positive and finite"):
            solvers.solve_power_allocation([0, 1], model.generate_deployment(11, 3), p_tot)
        with pytest.raises(ValueError, match="p_tot must be positive and finite"):
            solvers.solve_mckp(np.zeros((3, 6)), p_tot)

    @pytest.mark.parametrize("p_tot", [math.nan, math.inf, 0.0, -1.0])
    def test_verify_allocation_rejects_a_bad_budget(self, golden_network, p_tot):
        # The spend test alone passes any total under a NaN budget (total > nan is False).
        alloc = solvers.solve_ufa(golden_network, 50.0)
        with pytest.raises(ValueError, match="p_tot must be positive and finite"):
            solvers.verify_allocation(alloc, golden_network, p_tot)

    @pytest.mark.parametrize("change, error, message", [
        (lambda sel, pw: (np.append(sel, 0), np.append(pw, 0.0)), DimensionMismatch,
         "allocation vectors do not match the network size"),
        (lambda sel, pw: (sel, pw - np.eye(1, pw.size, 1)[0] * (pw[1] + 1e-3)), ValueError,
         "allocation has a negative power"),
        (lambda sel, pw: (sel, pw * (1.0 + 2e-9)), ValueError, "allocation spends"),
        (lambda sel, pw: (sel * (np.arange(sel.size) != 2), pw), ValueError,
         "unselected sensor carries nonzero power"),
    ], ids=["shape", "negative", "overspend", "unselected-power"])
    def test_verify_allocation_rejects_an_infeasible_allocation(self, change, error, message):
        network = model.generate_deployment(11, 4)
        alloc = solvers.solve_ufa(network, 8.0)
        solvers.verify_allocation(alloc, network, 8.0)
        selection, powers = change(alloc.selection, alloc.powers)
        bad = dataclasses.replace(alloc, selection=selection, powers=powers)
        with pytest.raises(error, match=message):
            solvers.verify_allocation(bad, network, 8.0)


class TestUfa:
    def test_single_sensor(self, reference_sensor, default_prior):
        net = model.Network(sensors=(reference_sensor,), prior=default_prior)
        alloc = solvers.solve_ufa(net, 12.0)
        np.testing.assert_allclose(alloc.powers, [12.0])
        assert alloc.num_selected == 1

    def test_identical_sensors_objective(self, reference_sensor, default_prior):
        k, p_tot = 6, 18.0
        net = model.Network(sensors=(reference_sensor,) * k, prior=default_prior)
        alloc = solvers.solve_ufa(net, p_tot)
        expected = default_prior.inverse_trace + k * fisher.t_k(
            p_tot / k, reference_sensor, default_prior
        )
        assert alloc.objective == pytest.approx(expected, rel=1e-12)
        assert alloc.num_selected == k

    def test_feasible(self, golden_network):
        alloc = solvers.solve_ufa(golden_network, 30.0)
        solvers.verify_allocation(alloc, golden_network, 30.0)


class TestUsu:
    def test_single_sensor(self, reference_sensor, default_prior):
        net = model.Network(sensors=(reference_sensor,), prior=default_prior)
        alloc = solvers.solve_usu(net, 9.0)
        np.testing.assert_allclose(alloc.powers, [9.0])
        assert alloc.num_selected == 1

    def test_homogeneous_selects_all(self):
        net = model.homogeneous_network(10)
        for p_tot in (5.0, 30.0):
            alloc = solvers.solve_usu(net, p_tot)
            assert alloc.num_selected == 10
            np.testing.assert_allclose(alloc.powers, p_tot / 10)

    def test_golden_never_selects_more_than_greedy(self, golden_network, golden_objectives):
        for key, entry in golden_objectives.items():
            assert entry["usu"]["num_selected"] <= entry["greedy"]["num_selected"]

    def test_feasible_and_diagnosed(self, golden_network):
        alloc = solvers.solve_usu(golden_network, 20.0)
        solvers.verify_allocation(alloc, golden_network, 20.0)
        assert alloc.iterations == len(alloc.diagnostics)
        cardinalities = [i for i, _ in alloc.diagnostics]
        assert cardinalities == list(range(1, len(cardinalities) + 1))


class TestPowerAllocation:
    def test_single_sensor_gets_budget(self, golden_network):
        powers = solvers.solve_power_allocation([3], golden_network, 14.0)
        np.testing.assert_allclose(powers, [14.0])

    def test_single_sensor_multiplier_is_slope_at_budget(self, golden_network):
        solution = solvers._power_allocation_detailed([3], golden_network, 14.0)
        kernel = fisher.InfoKernel(golden_network.sensors[3], golden_network.prior)
        assert solution.multiplier == kernel.t_prime(14.0)

    def test_identical_sensors_split_evenly(self, reference_sensor, default_prior):
        net = model.Network(sensors=(reference_sensor,) * 2, prior=default_prior)
        powers = solvers.solve_power_allocation([0, 1], net, 10.0)
        np.testing.assert_allclose(powers, [5.0, 5.0], atol=1e-6)

    def test_budget_active(self, golden_network):
        for active in ([0, 1, 2], [3, 11, 15, 19], list(range(8))):
            powers = solvers.solve_power_allocation(active, golden_network, 25.0)
            assert powers.sum() == pytest.approx(25.0, rel=1e-8)
            assert np.all(powers >= 0.0)

    @pytest.mark.parametrize("active, message", [
        ([-1, 0], "active set index -1 is out of range for 3 sensors"),
        ([0, 3], "active set index 3 is out of range for 3 sensors"),
        ([0, 1.0], "active set index 1.0 is not an integer"),
        ([True, 2], "active set index True is not an integer"),
        ([0, 0], "active set index 0 appears more than once"),
        ([2, 1, 2], "active set index 2 appears more than once"),
    ], ids=["negative", "out-of-range", "float", "bool", "repeated", "repeated-later"])
    def test_rejects_a_bad_active_set(self, active, message):
        network = model.generate_deployment(11, 3)
        with pytest.raises(ValueError, match=re.escape(message)):
            solvers.solve_power_allocation(active, network, 5.0)

    def test_twins_split_as_with_one_curve_per_sensor(self, golden_network):
        # Twins share one curve, and each member keeps its own slope table;
        # the split must equal one curve per sensor, byte for byte.
        network = _twin_network(golden_network)
        for active, p_tot in (([0, 2, 6, 1, 4], 15.0), (list(range(12)), 30.0)):
            shared = solvers._power_allocation_detailed(active, network, p_tot)
            separate = solvers._allocate_power_core(
                [solvers._Curve(fisher.InfoKernel(network.sensors[j], network.prior).t_prime,
                                p_tot) for j in active], p_tot)
            assert shared.powers.tolist() == separate.powers.tolist()
            assert (shared.multiplier, shared.kkt_residual, shared.iterations, shared.fallback) \
                == (separate.multiplier, separate.kkt_residual, separate.iterations,
                    separate.fallback)

    def test_twins_need_every_parameter_equal(self, reference_sensor, default_prior):
        changes = {"gain": reference_sensor.gain * 1.5, "sigma_n": 1.5, "h_mag": 0.9,
                   "sigma_nu": 1.2, "bits": 2, "tau": 4.0}
        variants = [dataclasses.replace(reference_sensor, **{name: value})
                    for name, value in changes.items()]
        copy = dataclasses.replace(reference_sensor, gain=reference_sensor.gain.copy())
        curves = _curves([reference_sensor, copy] + variants, default_prior, 5.0)
        assert curves[1] is curves[0]
        assert len({id(curve) for curve in curves}) == 1 + len(variants)

    def test_twins_split_in_closed_form(self, default_prior, monkeypatch):
        # Six twins share one curve: each gets p_tot / 6, with no refinement
        # and no t' call.  The multiplier t'(p_tot / 6) is evaluated when
        # first read, once.
        net = model.homogeneous_network(6)
        curve = _curves(net.sensors, default_prior, 12.0)[0]
        calls = []
        t_prime = curve.t_prime

        def logged_t_prime(x):
            calls.append(x)
            return t_prime(x)

        curve.t_prime = logged_t_prime
        monkeypatch.setattr(solvers._SlopeTable, "refine", _no_refine)
        solution = solvers._allocate_power_core([curve] * 6, 12.0)
        assert solution.powers.tolist() == [2.0] * 6 and calls == []
        assert (solution.kkt_residual, solution.iterations, solution.slope_evaluations) \
            == (0.0, 0, 0)
        assert solution.multiplier == t_prime(2.0) and calls == [2.0]
        assert solution.multiplier == t_prime(2.0) and calls == [2.0]

    def test_twin_classes_split_by_search_meet_kkt(self, default_prior, monkeypatch):
        # Three twins each of two sensors: the split searches its multiplier,
        # ends each class at one power and meets KKT_RTOL, and its slope
        # evaluations are its refinements plus one stationarity check per
        # interior member.
        sensor = model.homogeneous_network(1).sensors[0]
        odd = dataclasses.replace(sensor, h_mag=0.9)
        curves = _curves([sensor, odd], default_prior, 12.0)
        steps = []
        refine = solvers._SlopeTable.refine

        def counted_refine(table, lam, x):
            refine(table, lam, x)
            steps.append(x)

        monkeypatch.setattr(solvers._SlopeTable, "refine", counted_refine)
        solution = solvers._allocate_power_core([curves[0]] * 3 + [curves[1]] * 3, 12.0)
        assert solution.iterations > 0
        assert all(curve._endpoint(solution.multiplier) is None for curve in curves)
        assert len(set(solution.powers[:3].tolist())) == len(set(solution.powers[3:].tolist())) == 1
        assert solution.kkt_residual <= solvers.KKT_RTOL * solution.multiplier
        assert solution.slope_evaluations == len(steps) + 6

    def test_bound_is_the_accepted_objective_plus_the_candidates_term(self, default_prior):
        # After round 1 an exact bound is the accepted objective plus the
        # candidate's own term at the accepted multiplier, bit for bit, and a
        # key is the accepted objective plus its zero-power tangent above the
        # multiplier, at least the bound; in round 1 (multiplier 0) the key is
        # the bound, the baseline plus the candidate's zero-power tangent.  A
        # twin candidate's bound is at least its objective.
        sensor = model.homogeneous_network(1).sensors[0]
        odd = dataclasses.replace(sensor, h_mag=0.9)
        other = dataclasses.replace(sensor, h_mag=0.8)
        p_tot = 12.0
        curves = _curves([sensor, odd, sensor, odd, sensor, other], default_prior, p_tot)

        def objective(members):
            split = solvers._allocate_power_core([curves[i] for i in members], p_tot)
            return split, fisher._objective(default_prior, (
                curves[i].t(power) for i, power in sorted(zip(members, split.powers.tolist()))))

        solution, accepted = objective([0, 1, 2, 3])
        lam = solution.multiplier
        ub = solvers._dual_bounds(curves, accepted, p_tot, lam, [4, 5], exact=True)
        assert ub == {j: accepted + curves[j].term(lam) for j in (4, 5)}
        assert objective([0, 1, 2, 3, 4])[1] <= ub[4]
        keys = solvers._dual_bounds(curves, accepted, p_tot, lam, [4, 5])
        assert keys == {j: accepted + max(curves[j].at_zero - lam, 0.0) * p_tot for j in (4, 5)}
        assert all(keys[j] >= ub[j] for j in (4, 5))
        baseline = default_prior.inverse_trace
        assert solvers._dual_bounds(curves, baseline, p_tot, 0.0, [0, 1, 5]) \
            == {j: baseline + curves[j].at_zero * p_tot for j in (0, 1, 5)}

    def test_sensors_that_gain_nothing_split_evenly(self, default_prior):
        # Two distinct zero-gain sensors: every slope is 0, so no multiplier
        # is positive and the budget is split evenly at multiplier 0.
        sensors = tuple(model.Sensor(gain=np.zeros(2), sigma_n=sigma_n, h_mag=0.7,
                                     sigma_nu=1.0, bits=3, tau=3.0) for sigma_n in (1.0, 2.0))
        network = model.Network(sensors=sensors, prior=default_prior)
        solution = solvers._power_allocation_detailed([0, 1], network, 6.0)
        assert solution.powers.tolist() == [3.0, 3.0]
        assert (solution.multiplier, solution.iterations) == (0.0, 0)
        assert solvers.solve_power_allocation([0, 1], network, 6.0).tolist() == [3.0, 3.0]

    def test_a_kinked_slope_fails_the_stationarity_check(self):
        # The split assumes a continuous t', which each curve checks only at
        # its ends: a t' that steps from 2 to 0.5 at P = 1 passes, and its root
        # at lam = 2/3 is the step itself, where no power meets t' = lam.
        kinked = solvers._Curve(lambda p: 2.0 if p < 1.0 else 0.5, 3.0)
        smooth = solvers._Curve(lambda p: 2.0 / (1.0 + p), 3.0)
        with pytest.raises(NoConvergence, match="stationarity residual 1.333e"):
            solvers._allocate_power_core([kinked, smooth], 3.0)

    def test_kkt_residual_within_tolerance(self, golden_network):
        solution = solvers._power_allocation_detailed([1, 3, 6, 9], golden_network, 30.0)
        assert solution.kkt_residual <= 1e-6 * max(solution.multiplier, 1e-300)
        assert not solution.fallback

    def test_matches_grid_search(self):
        results = verify.check_p3()
        assert all(r.passed for r in results), [r.line() for r in results]

    @pytest.mark.parametrize("t_prime", [
        lambda p: 1.0 + 0.1 * p,
        # A NaN slope at p_tot once passed as concave, and the split then ran
        # MAX_ITER bisection steps before a misleading NoConvergence.
        lambda p: math.nan if p == 8.0 else 2.0 / (1.0 + p),
        lambda p: 2.0 / (1.0 + p) if p == 8.0 else math.nan,
    ], ids=["rising", "nan-at-p_tot", "nan-at-zero"])
    def test_non_monotone_derivative_raises(self, t_prime):
        # The split and greedy's bound rest on t being concave; a curve whose
        # t' rises, or is NaN, between zero power and p_tot is refused when
        # it is built.
        with pytest.raises(ConcavityViolation, match="t is not concave"):
            solvers._Curve(t_prime, 8.0)

    def test_term_at_a_zero_power_end_is_exactly_zero(self):
        # Where t(P) - lam * P peaks at P = 0, the term is t(0), whose true
        # value is 0 (p = 1/2 there), so it is returned as exactly 0.0 and no
        # t is taken.
        def t(power):
            raise AssertionError(f"term took t at {power}")

        curve = solvers._Curve(lambda p: 2.0 / (1.0 + p), 8.0, t)
        for lam in (2.0, 3.0, 1e300):
            term = curve.term(lam)
            assert term == 0.0 and math.copysign(1.0, term) == 1.0

    def test_computed_t_at_zero_power_is_rounding(self, fresh_golden):
        # The computed t(0) is the rounding of the telescoping slope rows, not
        # 0 itself, on both the unchecked and the checked path: far inside
        # _BOUND_SLACK, which is why a term at a zero-power end can be 0.0.
        values = [value for kernel in fisher._kernels(fresh_golden, fresh_golden.sensors)
                  for value in (kernel.t(0.0), kernel.t_checked(0.0))]
        assert max(map(abs, values)) <= 1e-30

    def test_synthetic_concave_exact(self):
        # Two closed-form concave objectives: t_i(p) = a_i * log(1 + p).
        # Stationarity a_i / (1 + p_i) = lam with the budget gives a linear
        # system solvable by hand.
        a = np.array([2.0, 1.0])
        p_tot = 7.0
        t_primes = [lambda p: 2.0 / (1.0 + p), lambda p: 1.0 / (1.0 + p)]
        solution = solvers._allocate_power_core(
            [solvers._Curve(tp, p_tot) for tp in t_primes], p_tot)
        # lam = sum(a) / (p_tot + 2) ; p_i = a_i / lam - 1
        lam = a.sum() / (p_tot + 2.0)
        expected = a / lam - 1.0
        np.testing.assert_allclose(solution.powers, expected, rtol=1e-6)

    @pytest.mark.parametrize("t_prime, p_tot, bracket, most_steps", [
        # Zero slope beyond P = 10: two sensors use at most 20 of 100 at any
        # lam > 0, so the bisection halves lam all the way down to 0.
        (lambda p: max(0.0, 1.0 - p / 10.0), 100.0, "[0.0, 5e-324]", 1100),
        # The slope drops from 1 to 0.5 at P = 5: the powers jump from 10 to
        # 24 in all as lam falls through 0.5, past the budget of 12.
        (lambda p: 1.0 if p < 5.0 else 0.5, 12.0, "[0.5, 0.5000000000000001]", 100),
    ], ids=["saturating", "jump"])
    def test_collapse_raises_once_the_bracket_cannot_split(self, monkeypatch, t_prime, p_tot,
                                                           bracket, most_steps):
        multipliers = set()
        ends = solvers._SlopeTable.ends

        def logged_ends(table, lam):
            multipliers.add(lam)
            return ends(table, lam)

        monkeypatch.setattr(solvers._SlopeTable, "ends", logged_ends)
        with pytest.raises(NoConvergence, match="no positive multiplier spends the budget") as info:
            solvers._allocate_power_core([solvers._Curve(t_prime, p_tot) for _ in range(2)],
                                         p_tot)
        assert bracket in str(info.value)
        assert len(multipliers) <= most_steps

    @pytest.mark.parametrize("t_prime, p_tot, lam", [
        (lambda p: max(0.0, 1.0 - p / 10.0), 100.0, 0.0),
        (lambda p: 1.0 if p < 5.0 else 0.5, 12.0, 0.5),
    ], ids=["saturating", "jump"])
    def test_one_shared_curve_splits_where_the_bracket_would_collapse(self, t_prime, p_tot,
                                                                      lam):
        # The curves of the test above, shared: the equal split is optimal,
        # with no bisection to collapse.
        solution = solvers._allocate_power_core([solvers._Curve(t_prime, p_tot)] * 2, p_tot)
        assert solution.powers.tolist() == [p_tot / 2] * 2
        assert (solution.multiplier, solution.kkt_residual, solution.iterations) == (lam, 0.0, 0)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(a=st.floats(1e-2, 50.0), b=st.floats(1e-2, 1e2), m=st.integers(2, 12),
                      p_tot=st.floats(0.1, 1e4))
    def test_identical_log_curves_split_equally(self, a, b, m, p_tot):
        curve = _log_curves([a], [b], p_tot)[0]
        solution = solvers._allocate_power_core([curve] * m, p_tot)
        share = p_tot / m
        assert solution.powers.tolist() == [share] * m
        assert solution.multiplier == a * b / (1.0 + b * share)
        assert (solution.kkt_residual, solution.iterations, solution.slope_evaluations) \
            == (0.0, 0, 0)


def _log_curves(a, b, p_tot):
    """Curves of t_i(P) = a_i * log(1 + b_i * P), one per (a_i, b_i)."""
    return [solvers._Curve(lambda x, a=a_i, b=b_i: a * b / (1.0 + b * x), p_tot)
            for a_i, b_i in zip(a, b)]


class TestSplitProperties:
    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(
        lam=st.floats(1e-3, 1e3),
        sensors=st.lists(st.tuples(st.floats(1e-2, 50.0), st.floats(1e-2, 1e2)),
                         min_size=2, max_size=8),
    )
    def test_interior_split_matches_the_closed_form(self, lam, sensors):
        # Each sensor's power P_i and b_i are drawn, and a_i puts every
        # maximizer at P_i for the multiplier lam; the split only sees a, b
        # and the budget, where lam* = sum a / (p_tot + sum 1 / b).
        powers, b = (np.array(column) for column in zip(*sensors))
        a = lam * (1.0 / b + powers)
        p_tot = float(np.sum(powers))
        exact = a.sum() / (p_tot + np.sum(1.0 / b))
        solution = solvers._allocate_power_core(_log_curves(a, b, p_tot), p_tot)
        # The bisection stops once the budget is met to BUDGET_RTOL, and each
        # root is bracketed to x_tol, which bounds the multiplier's error.
        x_tol = 1e-12 * p_tot
        slack = (solvers.BUDGET_RTOL * p_tot + len(a) * x_tol) / (p_tot + np.sum(1.0 / b))
        assert abs(solution.multiplier / exact - 1.0) <= slack * (1.0 + 1e-6) + 1e-14
        # At the returned multiplier every power is its closed-form root to
        # x_tol, before the final rescale by at most BUDGET_RTOL.
        roots = a / solution.multiplier - 1.0 / b
        assert np.all(np.abs(solution.powers - roots)
                      <= x_tol + solvers.BUDGET_RTOL * roots + 1e-12 * np.abs(roots))
        assert abs(solution.powers.sum() - p_tot) <= solvers.BUDGET_RTOL * p_tot
        assert solution.powers.sum() <= p_tot * (1.0 + 1e-15)
        residual = np.max(np.abs(a * b / (1.0 + b * solution.powers) - solution.multiplier))
        assert solution.kkt_residual <= solvers.KKT_RTOL * solution.multiplier
        assert residual <= solvers.KKT_RTOL * solution.multiplier
        assert not solution.fallback

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(
        classes=st.lists(st.tuples(st.floats(1e-2, 10.0), st.floats(1e-2, 1e2)),
                         min_size=1, max_size=4),
        pattern=st.lists(st.integers(0, 3), min_size=2, max_size=10),
        p_tot=st.floats(0.1, 200.0),
    )
    def test_shared_curve_splits_as_separate_equal_curves(self, classes, pattern, p_tot):
        pattern = [c % len(classes) for c in pattern]
        a, b = zip(*classes)
        shared = _log_curves(a, b, p_tot)
        with_twins = solvers._allocate_power_core([shared[c] for c in pattern], p_tot)
        apart = solvers._allocate_power_core(
            _log_curves([a[c] for c in pattern], [b[c] for c in pattern], p_tot), p_tot)
        if len(set(pattern)) == 1:
            # One class is split in closed form; bisecting the separate curves
            # lands within the budget band of it and never above its objective.
            (c,), m = set(pattern), len(pattern)
            share = p_tot / m
            assert with_twins.powers.tolist() == [share] * m
            assert with_twins.multiplier == shared[c].t_prime(share)
            assert (with_twins.kkt_residual, with_twins.iterations,
                    with_twins.slope_evaluations) == (0.0, 0, 0)
            assert np.all(np.abs(apart.powers - share) <= solvers.BUDGET_RTOL * p_tot)

            def objective(powers):
                return sum(a[c] * math.log1p(b[c] * power) for power in powers)

            assert objective(apart.powers) <= objective(with_twins.powers) * (1.0 + 1e-14)
            return
        assert with_twins.powers.tolist() == apart.powers.tolist()
        assert (repr(with_twins.multiplier), repr(with_twins.kkt_residual),
                with_twins.iterations, with_twins.fallback) \
            == (repr(apart.multiplier), repr(apart.kkt_residual), apart.iterations,
                apart.fallback)
        # A twin class's table is refined, and its residual taken, once.
        assert with_twins.slope_evaluations <= apart.slope_evaluations

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(
        classes=st.lists(st.tuples(st.floats(1e-2, 10.0), st.floats(1e-2, 1e2)),
                         min_size=1, max_size=4),
        pattern=st.lists(st.integers(0, 3), min_size=1, max_size=10),
        cut=st.floats(0.01, 2.0),
        p_tot=st.floats(0.1, 1e3),
    )
    def test_aimed_and_plain_refinement_agree(self, classes, pattern, cut, p_tot):
        # `_aim` only moves where t' is evaluated, and the multiplier steps
        # read the points it leaves tabled, so aimed and plain refinement (at
        # the false-position points alone) may stop at different multipliers
        # inside the budget band.  Both must be solutions of the same split.
        # One curve's slope is 0 beyond cut * p_tot, as golden's are in the
        # saturated range.
        pattern = [c % len(classes) for c in pattern]
        a, b = zip(*classes)

        def curves():
            shared = _log_curves(a, b, p_tot)
            flat = solvers._Curve(lambda x: max(0.0, 1.0 - x / (cut * p_tot)), p_tot)
            return [shared[c] for c in pattern] + [flat]

        aimed = solvers._allocate_power_core(curves(), p_tot)
        with mock.patch.object(solvers, "_aim", lambda lam, points, *rest: points):
            plain = solvers._allocate_power_core(curves(), p_tot)
        x_tol, m = 1e-12 * p_tot, len(pattern) + 1
        slack = solvers.BUDGET_RTOL * p_tot
        for solution in (aimed, plain):
            assert abs(solution.powers.sum() - p_tot) <= m * math.ulp(p_tot)
            assert solution.kkt_residual <= solvers.KKT_RTOL * max(solution.multiplier, 1e-300)
        # Where some curve is interior its slope pins the multiplier; where
        # every curve sits at an end, any multiplier between the clip tests
        # splits the same way.
        if any(curve._endpoint(aimed.multiplier) is None for curve in curves()):
            assert abs(aimed.multiplier - plain.multiplier) \
                <= solvers.KKT_RTOL * max(aimed.multiplier, plain.multiplier)
        # Each root sum at either multiplier is within the band, widened by
        # m * x_tol, of the budget, and every root moves the same way with
        # the multiplier, so no root moves by more than the two sums differ.
        # Each power is within x_tol of its root before the rescale to the
        # budget, which moves it by its share of the band.
        assert np.all(np.abs(aimed.powers - plain.powers)
                      <= ((m + 1) * x_tol + slack * (2.0 + (aimed.powers + plain.powers) / p_tot))
                      * (1.0 + 1e-9))


class TestStoredObjective:
    @pytest.mark.parametrize("name", ["golden", "homogeneous-7", "golden-twins", "fuzzed"])
    @pytest.mark.parametrize("algorithm", ["ufa", "usu", "greedy"])
    def test_objective_is_trace_fim(self, algorithm, name, golden_network):
        # ufa calls trace_fim, and usu and greedy keep the objective they
        # summed: each must be trace_fim's bits for the allocation returned.
        if name == "fuzzed":
            rng = np.random.default_rng(39)
            networks = [random_network(rng) for _ in range(20)]
        elif name == "homogeneous-7":
            networks = [model.homogeneous_network(7)]
        else:
            networks = [_PRUNING_NETWORKS[name](golden_network)]
        for network in networks:
            for p_tot in (5.0, 20.0, 50.0):
                alloc = solvers.SOLVERS[algorithm](network, p_tot, solvers.DEFAULT_GRID_N,
                                                   solvers.DEFAULT_EPS0)
                recomputed = fisher.trace_fim(alloc.powers, alloc.selection, network)
                assert repr(alloc.objective) == repr(recomputed), (network.k, p_tot)


class TestGreedy:
    def test_no_accepted_round_returns_the_prior(self, golden_network):
        # No candidate improves by eps0 = 1e300, so nothing is accepted and
        # the objective is tr(C^-1).
        alloc = solvers.solve_greedy(golden_network, 5.0, eps0=1e300)
        assert alloc.num_selected == alloc.iterations == 0
        assert alloc.powers.tolist() == [0.0] * golden_network.k
        assert alloc.objective == golden_network.prior.inverse_trace
        assert alloc.diagnostics == ()

    @pytest.mark.parametrize("eps0", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_bad_eps0(self, golden_network, eps0):
        # A NaN eps0 once switched the stopping rule off, and an infinite one
        # returned an empty selection.
        with pytest.raises(ValueError, match="eps0 must be positive and finite"):
            solvers.solve_greedy(golden_network, 5.0, eps0)

    def test_single_sensor(self, reference_sensor, default_prior):
        net = model.Network(sensors=(reference_sensor,), prior=default_prior)
        alloc = solvers.solve_greedy(net, 11.0)
        np.testing.assert_allclose(alloc.powers, [11.0])
        assert alloc.iterations == 1

    def test_homogeneous_selects_all_with_tight_eps(self):
        net = model.homogeneous_network(6)
        alloc = solvers.solve_greedy(net, 12.0, eps0=1e-6)
        assert alloc.num_selected == 6
        np.testing.assert_allclose(alloc.powers, 2.0, atol=1e-6)

    def test_golden_beats_usu(self, golden_objectives):
        for entry in golden_objectives.values():
            assert entry["greedy"]["objective"] >= entry["usu"]["objective"]

    def test_feasible_and_monotone_diagnostics(self, golden_network):
        alloc = solvers.solve_greedy(golden_network, 15.0)
        solvers.verify_allocation(alloc, golden_network, 15.0)
        objectives = [obj for _, obj in alloc.diagnostics]
        assert all(b > a for a, b in zip(objectives, objectives[1:]))

    def test_deterministic(self, golden_network):
        a = solvers.solve_greedy(golden_network, 10.0)
        b = solvers.solve_greedy(golden_network, 10.0)
        np.testing.assert_array_equal(a.powers, b.powers)
        np.testing.assert_array_equal(a.selection, b.selection)
        assert a.objective == b.objective
        assert a.diagnostics == b.diagnostics

    def test_rising_slope_raises_before_any_split(self, golden_network, monkeypatch):
        # One golden sensor whose t' rises: greedy builds every curve before
        # its first split, so it stops there, naming the concavity it needs.
        make_slope_rise(monkeypatch, golden_network.sensors[3])
        monkeypatch.setattr(solvers, "_allocate_power_core", _no_split)
        with pytest.raises(ConcavityViolation, match="t is not concave"):
            solvers.solve_greedy(golden_network, 5.0)


def _no_split(curves, p_tot):
    raise AssertionError("a split ran over a curve whose t' rises")


def _no_refine(table, lam, x):
    raise AssertionError("a split over one twin class refined a slope table")


def _twin_network(golden, picks=(3, 0, 3, 5, 0, 7, 3, 11, 0, 15, 5, 5)):
    """Golden sensors picked by index, with repeats; the default repeats 3, 0 and 5 thrice."""
    return model.Network(sensors=tuple(golden.sensors[i] for i in picks), prior=golden.prior)


def _greedy_every_candidate(network, p_tot, eps0):
    """Greedy without bounds: every inactive candidate gets a split each round.

    Every candidate's split builds one fresh curve per distinct sensor in
    it, so no work is shared between candidates or rounds, and a candidate
    of one twin class takes the closed form, as greedy's splits do.

    Returns the allocation and, per round, the accepted set, its powers, its
    multiplier (t'(p_tot) for one sensor; None before the first acceptance),
    its objective (the baseline before the first acceptance) and every
    candidate's objective.
    """
    k = network.k
    active = []
    inactive = list(range(k))
    objective_prev = 1e-12
    accepted_powers = np.zeros(k)
    lam = None
    diagnostics = []
    rounds = 0
    history = []
    while inactive:
        best_obj = -math.inf
        best_j = None
        best_solution = None
        objectives = {}
        for j in inactive:
            candidate = active + [j]
            sensors = [network.sensors[i] for i in candidate]
            fresh = {sensor: solvers._Curve(fisher.InfoKernel(sensor, network.prior).t_prime, p_tot)
                     for sensor in dict.fromkeys(sensors)}
            solution = solvers._allocate_power_core([fresh[sensor] for sensor in sensors], p_tot)
            powers_full = np.zeros(k)
            powers_full[candidate] = solution.powers
            selection = np.zeros(k)
            selection[candidate] = 1
            objective = fisher.trace_fim(powers_full, selection, network)
            objectives[j] = objective
            if objective > best_obj:
                best_obj = objective
                best_j = j
                best_solution = solution
        history.append((list(active), accepted_powers, lam,
                        objective_prev if active else network.prior.inverse_trace, objectives))
        if (best_obj - objective_prev) / objective_prev <= eps0:
            break
        active.append(best_j)
        inactive.remove(best_j)
        accepted_powers = np.zeros(k)
        accepted_powers[active] = best_solution.powers
        lam = best_solution.multiplier
        objective_prev = best_obj
        rounds += 1
        diagnostics.append((rounds, best_obj))
    selection = np.zeros(k)
    selection[active] = 1
    objective = fisher.trace_fim(accepted_powers, selection, network)
    alloc = solvers._finish(selection, accepted_powers, objective, "greedy", rounds, diagnostics)
    return alloc, history


_PRUNING_NETWORKS = {
    "golden": lambda golden: golden,
    "homogeneous-6": lambda golden: model.homogeneous_network(6),
    "homogeneous-10": lambda golden: model.homogeneous_network(10),
    "deployment-44-8": lambda golden: model.generate_deployment(44, 8),
    "deployment-46-8": lambda golden: model.generate_deployment(46, 8),
    "golden-twins": _twin_network,
    # Round 2 has twins 0 and 5 in different slots (sensor 2 is active), and
    # 5 wins by one ulp of trace_fim's summation order.
    "golden-twin-slots": lambda golden: _twin_network(golden, (1, 5, 3, 15, 0, 1)),
}


@pytest.fixture(scope="module", params=[
    ("golden", 5.0, solvers.DEFAULT_EPS0),
    ("golden", 15.0, solvers.DEFAULT_EPS0),
    ("homogeneous-6", 12.0, 1e-6),
    ("homogeneous-10", 5.0, 1e-5),
    # At the default eps0 a bound from the active twins would stop greedy
    # before all ten are on; a one-slot round takes none, so the objective
    # test must stop it there too.
    pytest.param(("homogeneous-10", 5.0, solvers.DEFAULT_EPS0), id="homogeneous-10@5-eps0"),
    ("deployment-44-8", 20.0, solvers.DEFAULT_EPS0),
    # Every sensor joins, so round 8 has one candidate slot on a network
    # without twins, and takes no bound.
    ("deployment-44-8", 1e3, 1e-12),
    ("deployment-46-8", 3.0, solvers.DEFAULT_EPS0),
    # Tiny budgets, where t_j(p_tot) comes closest to round 1's bound t'_j(0) * p_tot.
    ("golden", 1e-8, solvers.DEFAULT_EPS0),
    ("deployment-46-8", 1e-9, solvers.DEFAULT_EPS0),
    ("golden-twins", 15.0, 1e-6),
    ("golden-twin-slots", 15.0, 1e-6),
], ids=lambda case: f"{case[0]}@{case[1]:g}")
def every_candidate(request):
    name, p_tot, eps0 = request.param
    network = _PRUNING_NETWORKS[name](request.getfixturevalue("golden_network"))
    return network, p_tot, eps0, _greedy_every_candidate(network, p_tot, eps0)


class TestGreedyPruning:
    @pytest.mark.parametrize("name, p_tot, eps0", [
        ("golden", 5.0, solvers.DEFAULT_EPS0),
        ("golden", 50.0, solvers.DEFAULT_EPS0),
        ("homogeneous-10", 5.0, 1e-5),
        *((f"random-{i}", (5.0, 20.0, 50.0)[i % 3], solvers.DEFAULT_EPS0) for i in range(20)),
    ])
    def test_candidate_objectives_are_trace_fim(self, name, p_tot, eps0, golden_network,
                                                monkeypatch):
        # Greedy sums a candidate's objective from its curves' t values; it
        # must be the bits trace_fim gives for the candidate's allocation.
        if name.startswith("random-"):
            rng = np.random.default_rng(2026)
            network = [random_network(rng) for _ in range(int(name[7:]) + 1)][-1]
        else:
            network = _PRUNING_NETWORKS[name](golden_network)
        seen = []
        objective = solvers._objective

        def spy(prior, terms):
            value = objective(prior, terms)
            caller = inspect.currentframe().f_back
            assert caller.f_code is solvers.solve_greedy.__code__
            seen.append((list(caller.f_locals["candidate"]), caller.f_locals["solution"].powers,
                         value))
            return value

        monkeypatch.setattr(solvers, "_objective", spy)
        solvers.solve_greedy(network, p_tot, eps0)
        assert seen
        for candidate, powers, value in seen:
            full, selection = np.zeros(network.k), np.zeros(network.k)
            full[candidate], selection[candidate] = powers, 1.0
            assert value == fisher.trace_fim(full, selection, network), candidate

    def test_identical_to_solving_every_candidate(self, every_candidate):
        network, p_tot, eps0, (reference, _) = every_candidate
        alloc = solvers.solve_greedy(network, p_tot, eps0)
        assert alloc.selection.tolist() == reference.selection.tolist()
        assert alloc.powers.tolist() == reference.powers.tolist()
        assert alloc.objective == reference.objective
        assert alloc.diagnostics == reference.diagnostics
        assert alloc.iterations == reference.iterations
        assert alloc.algorithm == reference.algorithm

    @staticmethod
    def _bounds(curves, p_tot, lam, accepted, candidates):
        """The bounds greedy ranks a round by: round 1's keys (lam None), else exact bounds."""
        if lam is None:
            return solvers._dual_bounds(curves, accepted, p_tot, 0.0, candidates)
        return solvers._dual_bounds(curves, accepted, p_tot, lam, candidates, exact=True)

    @classmethod
    def _assert_within_bounds(cls, network, p_tot, history, curves):
        checked = 0
        for _, _, lam, accepted, objectives in history:
            ub = cls._bounds(curves, p_tot, lam, accepted, list(objectives))
            assert set(ub) == set(objectives)
            assert all(math.isfinite(u) for u in ub.values())
            for j, objective in objectives.items():
                assert objective <= ub[j] * (1.0 + 1e-12), (active, j)
                checked += 1
        assert checked > 0

    def test_every_candidate_within_its_bound(self, every_candidate):
        network, p_tot, _, (_, history) = every_candidate
        kernels = [fisher.InfoKernel(s, network.prior) for s in network.sensors]
        curves = [solvers._Curve(kern.t_prime, p_tot, kern.t) for kern in kernels]
        self._assert_within_bounds(network, p_tot, history, curves)

    def test_every_candidate_within_its_shared_curve_bound(self, every_candidate):
        # As greedy builds them: twins share one curve, and every member and
        # candidate takes its own term from it.
        network, p_tot, _, (_, history) = every_candidate
        curves = solvers._shared_curves(fisher._kernels(network, network.sensors), p_tot)
        self._assert_within_bounds(network, p_tot, history, curves)

    def test_keys_bound_the_exact_bounds_and_objectives(self, every_candidate):
        # A key, the accepted objective plus the zero-power tangent above the
        # multiplier, needs no kernel pass: it is at least the exact bound, so
        # rooting only the keys that reach the top of the heap skips no
        # candidate the exact bounds would solve, and bounds every objective.
        network, p_tot, _, (_, history) = every_candidate
        curves = solvers._shared_curves(fisher._kernels(network, network.sensors), p_tot)
        checked = 0
        for _, _, lam, accepted, objectives in history:
            candidates = list(objectives)
            keys = solvers._dual_bounds(curves, accepted, p_tot, 0.0 if lam is None else lam,
                                        candidates)
            bounds = self._bounds(curves, p_tot, lam, accepted, candidates)
            for j, objective in objectives.items():
                assert keys[j] >= bounds[j], j
                assert objective <= keys[j] * (1.0 + 1e-12), j
                checked += 1
        assert checked > 0

    def test_bound_is_the_member_sum(self, every_candidate):
        # Weak duality's sum, baseline + lam * p_tot plus one term per accepted
        # member (its t at its split power less lam times it, or the clip
        # rule's value at an end) plus the candidate's term, equals the
        # accepted objective plus the candidate's term to rounding.
        network, p_tot, _, (_, history) = every_candidate
        curves = solvers._shared_curves(fisher._kernels(network, network.sensors), p_tot)

        def member_term(curve, lam, power):
            end = curve._endpoint(lam)
            if end == 0.0:
                return 0.0
            power = power if end is None else end
            return curve.t(power) - lam * power

        checked = 0
        for active, powers, lam, accepted, objectives in history[1:]:
            ub = solvers._dual_bounds(curves, accepted, p_tot, lam, list(objectives), exact=True)
            members = sum(member_term(curves[i], lam, float(powers[i])) for i in active)
            for j in objectives:
                summed = network.prior.inverse_trace + lam * p_tot + members \
                    + curves[j].term(lam)
                assert abs(ub[j] - summed) <= 1e-12 * summed, (active, j)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("p_tot, built", [(5.0, 2), (15.0, 4), (30.0, 7), (50.0, 9)])
    def test_only_solved_candidates_build_check_tables(self, p_tot, built, fresh_golden):
        # Bound terms read the unchecked t, so only kernels whose sensor is
        # split as a candidate build the Kronrod check's tables.
        solvers.solve_greedy(fresh_golden, p_tot)
        kernels = fresh_golden._kernels.values()
        assert sum(kernel._check_cells is not None for kernel in kernels) == built

    @pytest.mark.parametrize("p_tot, slopes, terms, checked", [
        (5.0, 70, 1, 4), (15.0, 251, 6, 16), (30.0, 451, 22, 19), (50.0, 1062, 44, 44)])
    def test_golden_kernel_passes(self, p_tot, slopes, terms, checked, fresh_golden,
                                  monkeypatch):
        # Only keys that reach the top of a round's heap root their exact
        # bound, so golden greedy takes these t' calls, unchecked t (bound
        # terms at an interior maximizer) and checked-t misses; rooting every
        # candidate's bound took 86/3, 295/11, 518/29 and 1,162/53.
        counts = {"t_prime": 0, "t": 0, "_guarded": 0}
        for name in counts:
            method = getattr(fisher.InfoKernel, name)

            def counted(kernel, power, name=name, method=method):
                counts[name] += 1
                return method(kernel, power)

            monkeypatch.setattr(fisher.InfoKernel, name, counted)
        solvers.solve_greedy(fresh_golden, p_tot)
        assert (counts["t_prime"], counts["t"], counts["_guarded"]) == (slopes, terms, checked)

    @pytest.mark.parametrize("bounded", [True, False], ids=["bounds", "no-bounds"])
    def test_golden_p5_solves_two_candidates_in_round_one_and_one_after(
            self, bounded, golden_network, monkeypatch):
        # Round 1's bounds, tr(C^-1) + t'_j(0) * p_tot, leave two of the
        # 20 candidates to solve, and round 2's one.  Every key and exact
        # bound, round 1's too, comes from `_dual_bounds`: with them infinite,
        # every candidate of every round is solved.
        sizes = []
        core = solvers._allocate_power_core

        def counted(curves, p_tot):
            sizes.append(len(curves))
            return core(curves, p_tot)

        monkeypatch.setattr(solvers, "_allocate_power_core", counted)
        if not bounded:
            monkeypatch.setattr(solvers, "_dual_bounds",
                                lambda curves, objective, p_tot, lam, candidates, exact=False:
                                dict.fromkeys(candidates, math.inf))
        alloc = solvers.solve_greedy(golden_network, 5.0)
        assert alloc.num_selected == 2
        assert sizes == ([1, 1, 2] if bounded else [1] * 20 + [2] * 19 + [3] * 18)

    def test_each_endpoint_slope_evaluated_once(self, golden_network, monkeypatch):
        # The splits and the bound share one curve per sensor, so t' is taken
        # at most once at zero power and once at p_tot for each sensor.
        p_tot = 5.0
        endpoints = (0.0, p_tot)
        seen = []
        t_prime = fisher.InfoKernel.t_prime

        def counted(self, power):
            if power in endpoints:
                seen.append((id(self.sensor), power))
            return t_prime(self, power)

        monkeypatch.setattr(fisher.InfoKernel, "t_prime", counted)
        solvers.solve_greedy(golden_network, p_tot)
        assert seen
        assert len(seen) == len(set(seen))

    def test_twin_class_splits_once_per_round(self, monkeypatch):
        # Ten twins: each round has one candidate slot, and the one shared
        # curve takes t' once at zero power and once at p_tot.
        p_tot = 5.0
        sizes = []
        core = solvers._allocate_power_core

        def counted_core(curves, p_tot):
            sizes.append(len(curves))
            return core(curves, p_tot)

        endpoints = []
        t_prime = fisher.InfoKernel.t_prime

        def counted_t_prime(self, power):
            if power in (0.0, p_tot):
                endpoints.append(power)
            return t_prime(self, power)

        monkeypatch.setattr(solvers, "_allocate_power_core", counted_core)
        monkeypatch.setattr(fisher.InfoKernel, "t_prime", counted_t_prime)
        alloc = solvers.solve_greedy(model.homogeneous_network(10), p_tot, eps0=1e-5)
        assert alloc.num_selected == 10
        assert sizes == list(range(1, 11))
        assert endpoints == [0.0, p_tot]

    def test_homogeneous_10_twin_rounds_take_no_bound(self, monkeypatch):
        # Ten twins at p = 5: every round has one candidate slot, so greedy
        # takes no bound and reads no multiplier, and each round costs one
        # checked t at its equal split: t' is evaluated only at the curve's
        # two endpoints.
        slopes, checked = [0], [0]
        t_prime, guarded = fisher.InfoKernel.t_prime, fisher.InfoKernel._guarded

        def counted_t_prime(self, power):
            slopes[0] += 1
            return t_prime(self, power)

        def counted_guarded(self, power):
            checked[0] += 1
            return guarded(self, power)

        monkeypatch.setattr(fisher.InfoKernel, "t_prime", counted_t_prime)
        monkeypatch.setattr(fisher.InfoKernel, "_guarded", counted_guarded)
        alloc = solvers.solve_greedy(model.homogeneous_network(10), 5.0, eps0=1e-5)
        assert alloc.num_selected == 10
        assert (slopes[0], checked[0]) == (2, 10)

    @pytest.mark.parametrize("k", [2, 3, 7, 10])
    @pytest.mark.parametrize("p_tot", [5.0, 50.0, 1e3, 1e5])
    def test_full_homogeneous_activation_is_ufa(self, k, p_tot):
        # Every split is of one twin class, so it is the equal split itself:
        # at 1e5, past every slope's saturation, too.
        network = model.homogeneous_network(k)
        alloc = solvers.solve_greedy(network, p_tot, eps0=1e-12)
        uniform = solvers.solve_ufa(network, p_tot)
        assert alloc.num_selected == k
        assert alloc.powers.tolist() == uniform.powers.tolist()
        assert alloc.objective == uniform.objective

    def test_equal_objectives_go_to_the_lower_index(self, monkeypatch):
        # Keys and exact bounds that put higher indices first, and every
        # candidate of a round tied: the lowest index must still win, as when
        # every candidate is solved in order.  Candidates improve on round 1
        # only in round 2, so both rounds' reversed bounds are read.
        monkeypatch.setattr(solvers, "_dual_bounds",
                            lambda curves, objective, p_tot, lam, candidates, exact=False:
                            {j: 100.0 + j for j in candidates})
        monkeypatch.setattr(solvers, "_objective",
                            lambda prior, terms: 10.0 * min(len(list(terms)), 2))
        alloc = solvers.solve_greedy(model.generate_deployment(44, 4), 5.0)
        assert alloc.selection.tolist() == [1, 1, 0, 0]

    @pytest.mark.parametrize("network, p_tot, eps0, rounds", [
        (model.generate_deployment(44, 8), 1e3, 1e-12, 8),
        (model.homogeneous_network(10), 5.0, 1e-5, 10),
    ], ids=["deployment-44-8@1e3", "homogeneous-10@5"])
    def test_one_slot_rounds_take_no_bound(self, network, p_tot, eps0, rounds, monkeypatch):
        # A round with one candidate slot has nothing to rank or skip, so it
        # calls no `_dual_bounds`: deployment-44-8's eight distinct sensors
        # key rounds 1 to 7 only, each once over its candidates, and root
        # exact bounds (one candidate a call) in those rounds alone; the ten
        # twins call it in no round.
        keyed, rooted = [], []
        bounds = solvers._dual_bounds

        def logged_bounds(curves, objective, p_tot, lam, candidates, exact=False):
            active = inspect.currentframe().f_back.f_locals["active"]
            (rooted if exact else keyed).append((len(active), len(candidates)))
            return bounds(curves, objective, p_tot, lam, candidates, exact)

        monkeypatch.setattr(solvers, "_dual_bounds", logged_bounds)
        alloc = solvers.solve_greedy(network, p_tot, eps0)
        assert alloc.num_selected == alloc.iterations == rounds == network.k
        distinct = len(set(network.sensors))
        assert keyed == [(r, network.k - r) for r in range(distinct - 1)]
        assert all(0 < r < distinct - 1 and size == 1 for r, size in rooted)

    @pytest.mark.parametrize("name", ["golden-twins", "golden-twin-slots"])
    def test_mixed_splits_follow_their_rounds_bound(self, name, golden_network, monkeypatch):
        # Twins change no bound: a split over two or more distinct curves,
        # which bisects, comes after its own round's bound at the accepted
        # split's finite multiplier, as on a network without twins.
        network = _PRUNING_NETWORKS[name](golden_network)
        bounded, mixed = [], []
        bounds, core = solvers._dual_bounds, solvers._allocate_power_core

        def logged_bounds(curves, objective, p_tot, lam, candidates, exact=False):
            active = inspect.currentframe().f_back.f_locals["active"]
            bounded.append((len(active), math.isfinite(lam)))
            return bounds(curves, objective, p_tot, lam, candidates, exact)

        def logged_core(curves, p_tot):
            if len(set(curves)) > 1:
                mixed.append(bounded[-1:] == [(len(curves) - 1, True)])
            return core(curves, p_tot)

        monkeypatch.setattr(solvers, "_dual_bounds", logged_bounds)
        monkeypatch.setattr(solvers, "_allocate_power_core", logged_core)
        alloc = solvers.solve_greedy(network, 15.0, 1e-6)
        assert alloc.num_selected > 2
        assert mixed and all(mixed)


class TestSplitWork:
    @pytest.mark.parametrize("case, p_tot, most", [
        ("golden", 5.0, 30),
        ("golden", 50.0, 600),
        ("homogeneous-10", 5.0, 0),
    ], ids=["golden@5", "golden@50", "homogeneous-10@5"])
    def test_slope_evaluations_within_the_aimed_ceiling(self, case, p_tot, most, fresh_golden,
                                                        monkeypatch):
        # slope_evaluations counts every t' call a split makes.  The slope
        # tables carry brackets across multiplier steps, `_aim` puts their
        # refinement points at the budget band's edges, so most steps settle
        # with one call per curve, and each step's multiplier is the
        # regula-falsi root of the spend the tables estimate at the
        # bracket's ends: 22 calls at p = 5 and 507 at p = 50, where midpoint
        # steps took 43 and 844.
        # A split of k > 1 twins is the closed form, which calls t' only when
        # its multiplier is read, and greedy's one-slot rounds read none, so
        # homogeneous-10 takes 0.
        if case == "golden":
            network, eps0 = fresh_golden, solvers.DEFAULT_EPS0
        else:
            network, eps0 = model.homogeneous_network(10), 1e-5
        reported = []
        depth = [0]
        made = [0]
        core = solvers._allocate_power_core
        t_prime = fisher.InfoKernel.t_prime

        def counted_core(curves, budget):
            depth[0] += 1
            try:
                solution = core(curves, budget)
            finally:
                depth[0] -= 1
            reported.append(solution.slope_evaluations)
            return solution

        def counted_t_prime(self, power):
            made[0] += depth[0] > 0
            return t_prime(self, power)

        monkeypatch.setattr(solvers, "_allocate_power_core", counted_core)
        monkeypatch.setattr(fisher.InfoKernel, "t_prime", counted_t_prime)
        solvers.solve_greedy(network, p_tot, eps0)
        assert all(isinstance(count, int) for count in reported)
        assert sum(reported) == made[0]
        assert 0 < sum(reported) <= most if most else sum(reported) == 0


class TestExactSpend:
    @staticmethod
    def _cases(name, golden_network):
        if name == "golden":
            return [(golden_network, p_tot) for p_tot in (5.0, 15.0, 30.0, 50.0)]
        if name == "homogeneous-7":
            network = model.homogeneous_network(7)
        else:
            rng = np.random.default_rng(2028)
            network = [random_network(rng) for _ in range(int(name[7:]) + 1)][-1]
        return [(network, p_tot) for p_tot in (5.0, 20.0, 50.0)]

    @pytest.mark.parametrize("name", ["golden", "homogeneous-7",
                                      *(f"random-{i}" for i in range(20))])
    def test_objectives_do_not_depend_on_the_band(self, name, golden_network):
        # Every split spends the budget to rounding, so where inside the
        # budget band its multiplier stops moves the powers only along the
        # flat top of the objective: a band a thousand times narrower gives
        # the same greedy to 1e-12.  Rescaling only an overspend leaves
        # golden at p = 15 4.9e-9 relative below the narrow band's.
        for network, p_tot in self._cases(name, golden_network):
            alloc = solvers.solve_greedy(network, p_tot)
            with mock.patch.object(solvers, "BUDGET_RTOL", 1e-11):
                narrow = solvers.solve_greedy(network, p_tot)
            assert alloc.selection.tolist() == narrow.selection.tolist(), p_tot
            assert alloc.objective == pytest.approx(narrow.objective, rel=1e-12, abs=0.0), p_tot

    @pytest.mark.parametrize("name", ["golden", "random-0", "random-1", "random-2"])
    def test_bisected_splits_spend_the_budget(self, name, golden_network, monkeypatch):
        bisected = []
        core = solvers._allocate_power_core

        def checked_core(curves, budget):
            solution = core(curves, budget)
            if solution.iterations:
                bisected.append(solution)
                assert abs(solution.powers.sum() - budget) \
                    <= len(curves) * math.ulp(budget), solution.powers.tolist()
            return solution

        monkeypatch.setattr(solvers, "_allocate_power_core", checked_core)
        for network, p_tot in self._cases(name, golden_network):
            solvers.verify_allocation(solvers.solve_greedy(network, p_tot), network, p_tot)
        assert bisected


class TestHighSnrGreedy:
    @pytest.mark.parametrize("p_tot, objective, selected", [
        (1e3, 113.30507324053, 20),
        # Saturated: tr(C^-1) + sum_k t_k(inf), which ufa, usu and mckp reach too.
        (1e4, 114.58718623297428, 20),
    ])
    def test_greedy_solves_large_budgets(self, golden_network, p_tot, objective, selected,
                                         monkeypatch):
        calls = [0]
        t_prime = fisher.InfoKernel.t_prime

        def counted(self, power):
            calls[0] += 1
            return t_prime(self, power)

        monkeypatch.setattr(fisher.InfoKernel, "t_prime", counted)
        alloc = solvers.solve_greedy(golden_network, p_tot)
        solvers.verify_allocation(alloc, golden_network, p_tot)
        assert alloc.objective == pytest.approx(objective, rel=1e-9)
        assert alloc.num_selected == selected
        # Aiming refinements at the budget band's edges must not cost more t'
        # calls where t' falls steeply across the brackets: refining at the
        # false-position points alone took these.
        assert calls[0] <= 1.05 * {1e3: 16_888, 1e4: 23_429}[p_tot]

    def test_greedy_names_the_collapse_beyond_saturation(self, golden_network):
        # Every golden t' is 0 beyond about P = 9,037, so a split over fewer
        # than 12 sensors cannot spend 1e5 at any positive multiplier.
        with pytest.raises(NoConvergence, match=r"no positive multiplier spends the budget: "
                                                r"the multiplier bracket \[0\.0, 5e-324\]"):
            solvers.solve_greedy(golden_network, 1e5)


class TestStrongLinks:
    """Each curve roots t' = lam on its own link's power scale, however strong the link."""

    @pytest.mark.parametrize("p_tot, saturated", [(5.0, 16.3951390167), (50.0, 50.4704834435)])
    @pytest.mark.parametrize("link", [
        {"h_mag": 1e2}, {"h_mag": 1e4}, {"h_mag": 1e16}, {"h_mag": 1e150},
        {"sigma_nu": 1e-150}, "largest",
    ], ids=lambda link: link if isinstance(link, str) else "{}={:g}".format(*next(iter(link.items()))))
    def test_greedy_and_splits_meet_kkt(self, link, p_tot, saturated, golden_network,
                                        monkeypatch):
        # Sensor 0's link made stronger: its split power falls as
        # (sigma_nu / h_mag) ** 2, to 2e-305 at the largest h_mag the link
        # check admits, far below 1e-12 * p_tot.  With that absolute root
        # tolerance greedy failed the stationarity check from h_mag = 1e4 on.
        sensor = golden_network.sensors[0]
        if link == "largest":
            link = {"h_mag": math.sqrt(sys.float_info.max) * sensor.sigma_nu}
            with pytest.raises(ValueError, match=re.escape("h_mag must keep")):
                dataclasses.replace(sensor, h_mag=math.nextafter(link["h_mag"], math.inf))
        strong = dataclasses.replace(sensor, **link)
        network = model.Network(sensors=(strong,) + golden_network.sensors[1:],
                                prior=golden_network.prior)
        splits = []
        core = solvers._allocate_power_core

        def logged(curves, budget):
            splits.append(core(curves, budget))
            return splits[-1]

        monkeypatch.setattr(solvers, "_allocate_power_core", logged)
        alloc = solvers.solve_greedy(network, p_tot)
        solvers.verify_allocation(alloc, network, p_tot)
        assert alloc.selection[0] == 1
        active = np.flatnonzero(alloc.selection).tolist()
        splits += [solvers._power_allocation_detailed(members, network, p_tot)
                   for members in (active, list(range(network.k)))]
        for solution in splits:
            assert solution.kkt_residual <= solvers.KKT_RTOL * solution.multiplier
        if strong.h_mag / strong.sigma_nu >= 1e150:
            assert alloc.objective == pytest.approx(saturated, rel=1e-9)


class TestTinyBudgets:
    """Every curve starts at zero power, with t' there the kernel's P -> 0 limit."""

    @pytest.mark.parametrize("p_tot", [1e-9, 1e-35])
    @pytest.mark.parametrize("which", ["golden", "homogeneous-7"])
    def test_greedy_and_split_solve(self, which, p_tot, golden_network):
        # At 1e-9, t' at powers far below the budget carries rounding near
        # p = 1/2 above the concavity check's 1e-12 slack, so the check runs
        # at the exact limit instead; at 1e-35, p is exactly 1/2 on [0, p_tot].
        network = golden_network if which == "golden" else model.homogeneous_network(7)
        alloc = solvers.solve_greedy(network, p_tot)
        solvers.verify_allocation(alloc, network, p_tot)
        assert alloc.num_selected == 1
        powers = solvers.solve_power_allocation([0, 1], network, p_tot)
        assert np.all(powers >= 0.0) and powers.sum() == pytest.approx(p_tot, rel=1e-12)

    def test_weak_sensor_clipped_at_zero_stays_selected(self, golden_network):
        # Sensor 0's slope at zero power is below sensor 3's at the whole
        # budget, so sensor 0's maximizer is the lower end: exactly 0.0.
        sensors, prior, p_tot = golden_network.sensors, golden_network.prior, 1.0
        assert fisher.t_k_derivative(0.0, sensors[0], prior) \
            < fisher.t_k_derivative(p_tot, sensors[3], prior)
        powers = solvers.solve_power_allocation([3, 0], golden_network, p_tot)
        assert powers.tolist() == [p_tot, 0.0]
        selection, full = np.zeros(golden_network.k), np.zeros(golden_network.k)
        selection[[3, 0]], full[[3, 0]] = 1, powers
        alloc = solvers._finish(selection, full, fisher.trace_fim(full, selection, golden_network),
                                "split", 1, ())
        assert alloc.num_selected == 2 and alloc.powers[0] == 0.0
        solvers.verify_allocation(alloc, golden_network, p_tot)


class TestSharedKernels:
    """Solvers read each sensor's kernel from its network, one per distinct sensor."""

    @pytest.mark.parametrize("which", ["relabelled-golden", "homogeneous"])
    def test_twins_share_one_curve_and_one_kernel(self, which, golden_network):
        if which == "homogeneous":
            network = model.homogeneous_network(10)
        else:
            picks = tuple(np.random.default_rng(8).permutation(20)) + (4, 11, 4, 0)
            network = _twin_network(golden_network, picks)
        curves = solvers._shared_curves(fisher._kernels(network, network.sensors), 15.0)
        for i, sensor in enumerate(network.sensors):
            kernel = network._kernels[sensor]
            assert curves[i].t_prime.__self__ is kernel and curves[i].t.__self__ is kernel
            for j, other in enumerate(network.sensors):
                assert (curves[i] is curves[j]) == (sensor == other)
        assert len({id(curve) for curve in curves}) == len(network._kernels) \
            == len(set(network.sensors))

    def test_usu_sweep_builds_each_kernel_once(self, monkeypatch):
        # 600 distinct sensors over three budgets: each kernel is built on
        # the first budget and kept by the network for the next two (the
        # process-wide 512-entry cache this replaced built 1,786).
        network = model.generate_deployment(42, 600)
        assert len(set(network.sensors)) == 600
        built = []
        init = fisher.InfoKernel.__init__

        def counted(self, sensor, prior, split=1):
            built.append(split)
            init(self, sensor, prior, split)

        monkeypatch.setattr(fisher.InfoKernel, "__init__", counted)
        for p_tot in (50.0, 45.0, 40.0):
            solvers.solve_usu(network, p_tot)
        assert built == [1] * 600


def _dp_on_network(network, p_tot, n=100):
    samples = solvers.make_power_grid(p_tot, n)
    return solvers.solve_mckp(fisher.tabulate_t(network, samples), p_tot,
                              baseline=network.prior.inverse_trace)


def _no_dp(*args, **kwargs):
    raise AssertionError("the certificate sent the budget to the DP")


class TestMckp:
    def test_stops_at_a_nonpositive_increment(self):
        # Row 0 takes one unit, row 1 the next; every further increment is 0,
        # so marginal analysis stops with a unit left over, and the
        # certificate at multiplier 0 clears both rows.
        table = np.array([[0.0, 1.0, 1.0, 1.0], [0.0, 0.5, 0.5, 0.5]])
        lazy = verify.mckp_marginal_on_table(table, _no_dp)
        dp = solvers.solve_mckp(table, 3.0)
        assert lazy.objective == dp.objective == solvers.enumerate_mckp_table(table)[1] == 1.5
        assert lazy.powers.tolist() == dp.powers.tolist() == [1.0, 1.0]

    def test_all_zero_table_selects_nothing(self):
        table = np.zeros((3, 6))
        alloc = solvers.solve_mckp(table, 10.0, baseline=17.0 / 3.0)
        assert alloc.num_selected == 0
        assert alloc.objective == pytest.approx(17.0 / 3.0)
        np.testing.assert_array_equal(alloc.powers, np.zeros(3))

    def test_matches_enumeration(self):
        results = verify.check_mckp(trials=50)
        assert all(r.passed for r in results), [r.line() for r in results]

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            solvers.solve_mckp(np.ones((3, 6)), 10.0)  # nonzero first column

    @pytest.mark.parametrize("table, message", [
        ([[0, math.nan, 1.05]], "value table entry [0, 1] is nan, not finite"),
        ([[0, 1, 1.05], [0, 1, math.inf]], "value table entry [1, 2] is inf, not finite"),
        ([[0.0], [0.0]], "there must be at least 2"),
        ([0, 1, 1.05], "value table must be 2-D, got shape (3,)"),
    ], ids=["nan-entry", "inf-entry", "one-column", "1-d-table"])
    def test_rejects_what_the_program_cannot_solve(self, table, message):
        with pytest.raises(GridMismatch, match=re.escape(message)):
            solvers.solve_mckp(table, 2.0)

    def test_accepts_a_list_table(self):
        alloc = solvers.solve_mckp([[0, 1, 1.05], [0, 1, 1.05]], 2.0)
        assert alloc.powers.tolist() == [1.0, 1.0] and alloc.objective == 2.0

    def test_powers_are_the_budgets_grid_at_the_picks(self):
        # The DP derives its grid from the table's width, so every power is
        # make_power_grid(p_tot, n) at the enumerated optimum's picks: no
        # power can sit off the grid or spend past the budget.
        rng = np.random.default_rng(8)
        for _ in range(30):
            k, n = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            p_tot = float(rng.uniform(0.1, 50.0))
            table = np.sort(rng.uniform(0.0, 1.0, size=(k, n + 1)), axis=1)
            table[:, 0] = 0.0
            picks, total, _ = solvers.enumerate_mckp_table(table)
            alloc = solvers.solve_mckp(table, p_tot)
            assert alloc.objective == total
            assert alloc.powers.tolist() == solvers.make_power_grid(p_tot, n)[picks].tolist()

    def test_budget_respected(self, golden_network):
        alloc = solvers.solve_mckp_network(golden_network, 30.0, 100)
        solvers.verify_allocation(alloc, golden_network, 30.0)

    def test_golden_close_to_greedy(self, golden_objectives):
        for entry in golden_objectives.values():
            gap = abs(entry["mckp"]["objective"] - entry["greedy"]["objective"])
            assert gap <= 0.01 * entry["greedy"]["objective"]

    def test_tie_prefers_smaller_grid_index(self):
        # Flat rows make every assignment optimal; the backtrack must then
        # choose zero power everywhere.
        table = np.zeros((2, 5))
        alloc = solvers.solve_mckp(table, 4.0)
        np.testing.assert_array_equal(alloc.powers, np.zeros(2))

    def test_equals_the_dp_on_the_golden_sweep(self, golden_network):
        for p_tot in cli.DEFAULT_SWEEP_GRID:
            lazy = solvers.solve_mckp_network(golden_network, p_tot)
            dp = _dp_on_network(golden_network, p_tot)
            assert lazy.objective == dp.objective, p_tot
            np.testing.assert_array_equal(lazy.powers, dp.powers)
            np.testing.assert_array_equal(lazy.selection, dp.selection)
            assert (lazy.algorithm, lazy.iterations, lazy.diagnostics) == \
                (dp.algorithm, dp.iterations, dp.diagnostics)

    def test_golden_sweep_never_reaches_the_dp(self, golden_network, monkeypatch):
        monkeypatch.setattr(solvers, "solve_mckp", _no_dp)
        monkeypatch.setattr(solvers, "tabulate_t", _no_dp)
        for p_tot in cli.DEFAULT_SWEEP_GRID:
            solvers.solve_mckp_network(golden_network, p_tot)

    def test_lambda_tie_is_certified_without_fallback(self, golden_network, monkeypatch):
        # At p = 30 the last accepted increment is sensor 16's own first one,
        # and T_0 - 0 <= T_1 - lam * 1 fails by T_0 (about 3e-33): only the
        # increment form of the prefix check clears the row.
        samples = solvers.make_power_grid(30.0, 100)
        kernel = fisher._kernels(golden_network, [golden_network.sensors[16]])[0]
        t0, t1 = kernel.t_checked(0.0), kernel.t_checked(float(samples[1]))
        assert not t0 <= t1 - (t1 - t0)
        seen = []
        certified = solvers._row_certified

        def logged(value, prefix, level, n, lam, bound):
            seen.append(lam)
            return certified(value, prefix, level, n, lam, bound)

        monkeypatch.setattr(solvers, "_row_certified", logged)
        monkeypatch.setattr(solvers, "solve_mckp", _no_dp)
        alloc = solvers.solve_mckp_network(golden_network, 30.0)
        assert alloc.powers[16] == samples[1]
        assert len(seen) == golden_network.k and set(seen) == {t1 - t0}

    def test_golden_sweep_reads(self, golden_scenario_path, monkeypatch):
        # From fresh kernels, marginal analysis plus the certificate's chain
        # read 2,017 entries over the 10 default budgets in ascending order,
        # and 1,469 largest first, as `fimalloc sweep` runs them, computing
        # 1,120 and 797 of them: the chain takes a memoized t at a larger
        # power in place of an entry it clears, and the heap reads an entry
        # only once its bounded increment reaches the top.  With an eager
        # heap it read 2,118 and 1,601 (computing 1,173 and 909); with no
        # bound at all, 2,562.
        reads, computed = [], []
        checked, guarded = fisher.InfoKernel.t_checked, fisher.InfoKernel._guarded

        def counted(self, power):
            reads.append(power)
            return checked(self, power)

        def computing(self, power):
            computed.append(power)
            return guarded(self, power)

        monkeypatch.setattr(fisher.InfoKernel, "t_checked", counted)
        monkeypatch.setattr(fisher.InfoKernel, "_guarded", computing)
        for largest_first, most_reads, most_computed in ((False, 2017, 1120), (True, 1469, 797)):
            network = model.load_scenario(golden_scenario_path)
            reads.clear()
            computed.clear()
            if largest_first:
                solvers.sweep(network, cli.DEFAULT_SWEEP_GRID, ["mckp"])
            else:
                for p_tot in cli.DEFAULT_SWEEP_GRID:
                    solvers.solve_mckp_network(network, p_tot)
            assert len(reads) <= most_reads
            assert len(computed) <= most_computed

    def test_memoized_t_is_nondecreasing_in_power(self, fresh_golden):
        # The certificate's bounds take a memoized t at a larger power as an
        # upper bound, which holds only while computed t is nondecreasing
        # in P: after the golden sweep (938 memoized values) and after
        # mckp on 60 fuzzed networks (19,195), no memo falls anywhere.
        solvers.sweep(fresh_golden, cli.DEFAULT_SWEEP_GRID, ["mckp", "ufa", "usu"])
        networks = [fresh_golden]
        for seed in range(2024, 2084):
            network = random_network(np.random.default_rng(seed))
            for p_tot in (50.0, 20.0, 5.0):
                solvers.solve_mckp_network(network, p_tot)
            networks.append(network)
        for network in networks:
            for kernel in fisher._kernels(network, network.sensors):
                memo = [kernel._checked[power] for power in kernel._powers]
                assert len(memo) > 1 and all(a <= b for a, b in zip(memo, memo[1:]))

    def test_golden_sweep_is_order_independent(self, golden_scenario_path):
        # mckp's bounds depend on what earlier budgets memoized, but never
        # its allocations; nor do any other solver's.  A sweep's errors fill
        # their cells: brute refuses K = 20.
        def solve_each(budgets, fresh=False):
            network = model.load_scenario(golden_scenario_path)
            out = {}
            for p_tot in budgets:
                for name in ("mckp", "ufa", "usu", "greedy"):
                    if fresh:
                        network = model.load_scenario(golden_scenario_path)
                    alloc = solvers.SOLVERS[name](network, p_tot, 100, solvers.DEFAULT_EPS0)
                    out[p_tot, name] = (repr(alloc.powers.tolist()), repr(alloc.objective))
            return out

        grid = cli.DEFAULT_SWEEP_GRID
        ascending = solve_each(grid)
        cells = solvers.sweep(model.load_scenario(golden_scenario_path), grid,
                              ("mckp", "ufa", "brute", "usu", "greedy"))
        assert [p_tot for p_tot, _, result, _ in cells if isinstance(result, TooLarge)] == grid
        assert {(p_tot, name): (repr(alloc.powers.tolist()), repr(alloc.objective))
                for p_tot, name, alloc, _ in cells if name != "brute"} == ascending
        assert solve_each(grid, fresh=True) == ascending

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(
        steps=st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1e-300])),
                       min_size=1, max_size=30),
        concave=st.booleans(),
        place=st.floats(0.0, 1.0),
        mix=st.floats(0.0, 1.0),
        free_lam=st.one_of(st.none(), st.floats(0.0, 2.0),
                           st.sampled_from([0.0, 5e-324, 1e-320, 1e-300])),
        slack=st.lists(st.one_of(st.none(), st.just(0.0), st.floats(0.0, 1.0),
                                 st.sampled_from([5e-324, 1e-300])),
                       min_size=31, max_size=31),
    )
    # Rows where the quotient rounds past the smallest clearing m (the
    # first) and short of it (the second), so the float comparison must
    # settle m.
    @hypothesis.example(steps=[0.2, 0.1, 0.1, 0.1, 0.05, 0.05], concave=True, place=0.0,
                        mix=0.0, free_lam=None, slack=[None] * 31)
    @hypothesis.example(steps=[0.6, 0.6, 0.3, 0.3, 0.3, 0.2, 0.1], concave=True, place=0.0,
                        mix=0.0, free_lam=None, slack=[None] * 31)
    def test_row_certificate_decides_the_full_row_predicate(self, steps, concave, place, mix,
                                                            free_lam, slack):
        # Nondecreasing rows, concave and not: the certificate's verdict is
        # the predicate read off every entry, and its reads are the chain
        # down from the last column, each step to the smallest m whose
        # bound clears (m, b].  lam is drawn between the increments around
        # the level, or freely.  The chain runs twice: with no bounds, and
        # with bounds that are None or at least the entry they bound
        # (equal to it for zero slack), which replace exactly the reads
        # they clear.
        if concave:
            steps = sorted(steps, reverse=True)
        row = [0.0]
        for step in steps:
            row.append(row[-1] + step)
        n = len(steps)
        level = min(int(place * (n + 1)), n)
        increments = np.diff(row)
        if free_lam is None:
            low = increments[level] if level < n else 0.0
            high = increments[level - 1] if level > 0 else low + 1.0
            lam = float(low + mix * (high - low))
        else:
            lam = free_lam
        reads = []

        def value(j):
            reads.append(j)
            return row[j]

        prefix = row[:min(level + 2, n + 1)]
        head = increments[:min(level + 1, n)]
        prefix_holds = (all(head[i] >= head[i + 1] for i in range(len(head) - 1))
                        and (level == 0 or head[level - 1] >= lam)
                        and (level == n or lam >= head[level]))
        expected = prefix_holds and all(row[j] - row[level] <= lam * (j - level)
                                        for j in range(level + 2, n + 1))
        bounds = [None if extra is None else entry + extra for entry, extra in zip(row, slack)]
        for upper in ([None] * (n + 1), bounds):
            chain, a, b = [], level + 1, n
            while prefix_holds and b > a:
                if upper[b] is not None and upper[b] - row[level] <= lam * (b - level):
                    rise = upper[b] - row[level]
                else:
                    chain.append(b)
                    rise = row[b] - row[level]
                b = next((m for m in range(a, b) if rise <= lam * (m + 1 - level)), a)
            reads.clear()
            assert solvers._row_certified(value, prefix, level, n, lam,
                                          upper.__getitem__) == expected
            assert reads == chain

    def test_non_concave_rows_fall_back_to_the_dp(self):
        # Nondecreasing rows that are mostly not concave (check_mckp's tables),
        # and one where handing out units by increment alone is wrong.  Each
        # table runs again with every entry bounded by the next one, so the
        # heap holds bounds and rows are certified from them: a bound that
        # fails must be read and checked again, never taken as the verdict.
        rng = np.random.default_rng(verify.DEFAULT_SEED + 400)
        tables = []
        for _ in range(50):
            k, n = int(rng.integers(2, 6)), int(rng.integers(2, 7))
            table = np.sort(rng.uniform(0.0, 1.0, size=(k, n + 1)), axis=1)
            table[:, 0] = 0.0
            tables.append(table)
        tables.append(np.array([[0.0, 1.0, 2.0], [0.0, 0.1, 5.0]]))
        fallbacks, bounded_fallbacks = [], []
        for table in tables:
            k, n = table.shape[0], table.shape[1] - 1
            grid = solvers.make_power_grid(float(n), n)
            lazy = verify.mckp_marginal_on_table(table, lambda: fallbacks.append(1))
            bounded = solvers._mckp_marginal(
                lambda row, j: float(table[row, j]), k, grid, float(n), 0.0,
                lambda: bounded_fallbacks.append(1) or table,
                lambda row, j: float(table[row, min(j + 1, n)]))
            dp = solvers.solve_mckp(table, float(n))
            assert lazy.objective == bounded.objective == dp.objective
            np.testing.assert_array_equal(lazy.powers, dp.powers)
            np.testing.assert_array_equal(bounded.powers, dp.powers)
            assert len(bounded_fallbacks) == len(fallbacks)
        assert len(fallbacks) >= 25
        assert verify.mckp_marginal_on_table(tables[-1]).objective == 5.0

    def test_concave_rows_are_certified(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            k, n = int(rng.integers(2, 6)), int(rng.integers(2, 9))
            steps = -np.sort(-rng.uniform(0.0, 1.0, size=(k, n)), axis=1)
            table = np.hstack([np.zeros((k, 1)), np.cumsum(steps, axis=1)])
            lazy = verify.mckp_marginal_on_table(table, _no_dp)
            assert lazy.objective == solvers.enumerate_mckp_table(table)[1]

    @pytest.mark.parametrize("p_tot", [20.0, 50.0])
    def test_twins_give_the_dp_objective(self, p_tot):
        # Marginal analysis gives tied units to the lowest twins; the DP's
        # backtrack picks other twins here (rows 2, 3 at p = 20, rows 0, 2 at
        # p = 50), with a bit-identical objective.
        network = model.homogeneous_network(7)
        lazy = solvers.solve_mckp_network(network, p_tot)
        assert lazy.objective == _dp_on_network(network, p_tot).objective
        samples = solvers.make_power_grid(p_tot, 100)
        np.testing.assert_array_equal(lazy.powers, samples[[15, 15, 14, 14, 14, 14, 14]])



def _eager_mckp(network, p_tot, n=100):
    """The eager heap mckp used before its heap was lazy, with a certificate given no bounds.

    Returns the (row, j) entries it reads and the levels it assigns: the
    reference for a lazy run with no bounds, which must read the same set.
    """
    samples = solvers.make_power_grid(p_tot, n)
    kernels = fisher._kernels(network, network.sensors)
    reads = set()

    def value(row, j):
        reads.add((row, j))
        return kernels[row].t_checked(float(samples[j]))

    prefixes = [[value(row, 0), value(row, 1)] for row in range(network.k)]
    heap = [(prefix[0] - prefix[1], row) for row, prefix in enumerate(prefixes)]
    heapq.heapify(heap)
    levels = [0] * network.k
    lam = 0.0
    for _ in range(n):
        negated, row = heap[0]
        if not negated < 0.0:
            lam = 0.0
            break
        lam = -negated
        levels[row] += 1
        if levels[row] == n:
            break
        prefixes[row].append(value(row, levels[row] + 1))
        heapq.heapreplace(heap, (prefixes[row][-2] - prefixes[row][-1], row))
    for row in range(network.k):
        if not solvers._row_certified(lambda j: value(row, j), prefixes[row], levels[row], n,
                                      lam, lambda j: None):
            break
    return reads, levels


def _lazy_mckp(network, budgets, bounded, monkeypatch):
    """solve_mckp_network over budgets from fresh kernels, with the memo's bounds or none.

    Returns, per budget, the allocation and the repr of its fields (every
    float in full), the (row, j) entries read and whether the certificate
    sent it to the DP; and the set of
    (kernel's first row, power) pairs computed over the whole run.
    """
    network = dataclasses.replace(network)  # a copy that has built no kernels
    kernels = fisher._kernels(network, network.sensors)
    marginal, guarded, dp = solvers._mckp_marginal, fisher.InfoKernel._guarded, solvers.solve_mckp
    runs, computed = [], set()

    def logged_marginal(value, *args):
        def logged(row, j):
            runs[-1]["reads"].add((row, j))
            return value(row, j)
        return marginal(logged, *args)

    def logged_guarded(kernel, power):
        computed.add((kernels.index(kernel), power))
        return guarded(kernel, power)

    def logged_dp(*args, **kwargs):
        runs[-1]["dp"] = True
        return dp(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_mckp_marginal", logged_marginal)
        patch.setattr(fisher.InfoKernel, "_guarded", logged_guarded)
        patch.setattr(solvers, "solve_mckp", logged_dp)
        if not bounded:
            patch.setattr(fisher.InfoKernel, "t_bound", lambda kernel, power: None)
        for p_tot in budgets:
            runs.append({"reads": set(), "dp": False})
            alloc = solvers.solve_mckp_network(network, p_tot)
            runs[-1].update(alloc=alloc, repr=repr([
                alloc.selection.tolist(), alloc.powers.tolist(), alloc.objective,
                alloc.algorithm, alloc.iterations, alloc.diagnostics]))
    return runs, computed


class TestLazyHeap:
    NETWORKS = (["golden", "homogeneous-7"]
                + [f"random-{seed}" for seed in range(2024, 2084)])

    @pytest.mark.parametrize("name", NETWORKS)
    def test_bounds_change_no_allocation_and_only_drop_work(self, name, golden_network,
                                                             monkeypatch):
        # Largest budget first, so later budgets find bounds in the memo.
        # With them the allocations and DP fallbacks are the same, the heap
        # reads (entries up to a row's level + 1) are a subset of those read
        # with none, and no more values are computed over the run, though
        # not always a subset: a bound that clears a certificate's chain
        # point can send the chain to entries the exact value would skip.
        # With none, the entries read are the eager heap's, budget by budget.
        if name == "golden":
            network = golden_network
        elif name == "homogeneous-7":
            network = model.homogeneous_network(7)
        else:
            network = random_network(np.random.default_rng(int(name.split("-")[1])))
        budgets = (50.0, 20.0, 5.0)
        bounded, computed_bounded = _lazy_mckp(network, budgets, True, monkeypatch)
        free, computed_free = _lazy_mckp(network, budgets, False, monkeypatch)
        assert [run["repr"] for run in bounded] == [run["repr"] for run in free]
        assert [run["dp"] for run in bounded] == [run["dp"] for run in free]
        assert len(computed_bounded) <= len(computed_free)
        for p_tot, run, lazy in zip(budgets, free, bounded):
            reads, levels = _eager_mckp(network, p_tot)
            assert run["reads"] == reads, p_tot
            assert {(row, j) for row, j in lazy["reads"] if j <= levels[row] + 1} <= reads
            if not run["dp"]:
                powers = solvers.make_power_grid(p_tot, 100)[levels]
                np.testing.assert_array_equal(run["alloc"].powers, powers)


class TestBruteforce:
    def test_too_large(self, golden_network):
        with pytest.raises(TooLarge):
            solvers.solve_bruteforce(golden_network, 10.0, 4)

    def test_single_sensor_full_power(self, reference_sensor, default_prior):
        net = model.Network(sensors=(reference_sensor,), prior=default_prior)
        alloc = solvers.solve_bruteforce(net, 8.0, 8)
        np.testing.assert_allclose(alloc.powers, [8.0])

    def test_agrees_with_mckp(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            net = random_network(rng, k=int(rng.integers(2, 5)))
            n = int(rng.integers(2, 7))
            p_tot = float(rng.uniform(2.0, 20.0))
            brute = solvers.solve_bruteforce(net, p_tot, n)
            grid = solvers.make_power_grid(p_tot, n)
            table = fisher.tabulate_t(net, grid)
            dp = solvers.solve_mckp(table, p_tot, baseline=net.prior.inverse_trace)
            assert brute.objective == dp.objective

    def test_discretized_below_continuous(self, reference_sensor, default_prior):
        net = model.Network(sensors=(reference_sensor,) * 2, prior=default_prior)
        p_tot = 10.0
        brute = solvers.solve_bruteforce(net, p_tot, 8)
        powers = solvers.solve_power_allocation([0, 1], net, p_tot)
        continuous = fisher.trace_fim(powers, [1, 1], net)
        assert brute.objective <= continuous + 1e-9


class TestAllocationInvariants:
    def test_fuzzed_scenarios(self):
        rng = np.random.default_rng(99)
        for _ in range(15):
            net = random_network(rng)
            p_tot = float(rng.uniform(1.0, 40.0))
            allocations = [
                solvers.solve_ufa(net, p_tot),
                solvers.solve_usu(net, p_tot),
                solvers.solve_greedy(net, p_tot),
                solvers.solve_mckp_network(net, p_tot, 40),
            ]
            for alloc in allocations:
                solvers.verify_allocation(alloc, net, p_tot)

    def test_verify_allocation_rejects_violations(self, golden_network):
        alloc = solvers.solve_ufa(golden_network, 10.0)
        bad = solvers.Allocation(
            selection=alloc.selection,
            powers=alloc.powers,
            objective=alloc.objective * 1.5,
            algorithm="ufa",
            iterations=1,
            diagnostics=(),
        )
        with pytest.raises(ValueError):
            solvers.verify_allocation(bad, golden_network, 10.0)

    @pytest.mark.parametrize("objective", [math.nan, math.inf, -math.inf])
    def test_verify_allocation_rejects_a_non_finite_objective(self, golden_network, objective):
        bad = dataclasses.replace(solvers.solve_ufa(golden_network, 5.0), objective=objective)
        with pytest.raises(ValueError, match="stored objective"):
            solvers.verify_allocation(bad, golden_network, 5.0)

    def test_objective_regression_goldens(self, golden_network, golden_objectives):
        # Frozen objectives for the shipped scenario; loose enough to ride
        # out platform libm differences, tight enough to catch regressions.
        for key, entry in golden_objectives.items():
            p_tot = float(key)
            alloc = solvers.solve_ufa(golden_network, p_tot)
            assert alloc.objective == pytest.approx(
                entry["ufa"]["objective"], rel=1e-6
            )
        alloc = solvers.solve_usu(golden_network, 30.0)
        assert alloc.objective == pytest.approx(
            golden_objectives["30.0"]["usu"]["objective"], rel=1e-6
        )
        assert alloc.num_selected == golden_objectives["30.0"]["usu"]["num_selected"]
