import dataclasses
import math
import re

import numpy as np
import pytest

from fimalloc import fisher, model, solvers, verify
from fimalloc.errors import ConcavityWarning, GridMismatch, TooLarge
from conftest import random_network


class TestPowerGrid:
    def test_samples_are_exact_multiples(self):
        grid = solvers.make_power_grid(30.0, 100)
        unit = 30.0 / 100
        for j in range(101):
            assert grid[j] == j * unit
        assert grid[0] == 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            solvers.make_power_grid(0.0, 10)
        with pytest.raises(ValueError):
            solvers.make_power_grid(5.0, 0)


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
            solvers.solve_mckp(np.zeros((3, 6)), solvers.make_power_grid(10.0, 5), p_tot)


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
        # Twins share one curve, and a bisection step roots each twin class
        # once; the split must still equal one curve per sensor, byte for byte.
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
        curves = solvers._shared_curves([reference_sensor, copy] + variants, default_prior, 5.0)
        assert curves[1] is curves[0]
        assert len({id(curve) for curve in curves}) == 1 + len(variants)

    def test_twins_take_one_residual_slope(self, default_prior):
        # Six twins end at one power, so the stationarity check after the
        # last bisection step evaluates t' once, not once per sensor.
        net = model.homogeneous_network(6)
        curve = solvers._shared_curves(net.sensors, default_prior, 12.0)[0]
        events = []
        t_prime, power = curve.t_prime, curve.power

        def logged_t_prime(x):
            events.append("t'")
            return t_prime(x)

        def logged_power(lam, x0):
            result = power(lam, x0)
            events.append("step")
            return result

        curve.t_prime, curve.power = logged_t_prime, logged_power
        solution = solvers._allocate_power_core([curve] * 6, 12.0)
        assert len(set(solution.powers.tolist())) == 1
        assert solution.kkt_residual <= solvers.KKT_RTOL * solution.multiplier
        last_step = len(events) - 1 - events[::-1].index("step")
        assert events[last_step + 1:] == ["t'"]

    def test_twins_take_one_bound_term(self, default_prior):
        net = model.homogeneous_network(5)
        p_tot = 10.0
        curve = solvers._shared_curves(net.sensors, default_prior, p_tot)[0]
        solution = solvers._allocate_power_core([curve] * 5, p_tot)
        calls = []
        t = curve.t

        def counted_t(x):
            calls.append(x)
            return t(x)

        curve.t = counted_t
        ub = solvers._dual_bounds([curve] * 5, 1.0, p_tot, solution.multiplier, range(5),
                                  solution.powers, [])
        assert ub == {} and len(calls) == 1
        # The shared term still enters once per member, summed in index order.
        lam = solution.multiplier
        each = curve.term(lam, solution.powers[0])
        odd = dataclasses.replace(net.sensors[0], h_mag=0.9)

        def fresh_odd_curve():
            return solvers._shared_curves([odd], default_prior, p_tot)[0]

        ub = solvers._dual_bounds([curve] * 5 + [fresh_odd_curve()], 1.0, p_tot, lam, range(5),
                                  solution.powers, [5])
        assert ub[5] == 1.0 + lam * p_tot + sum([each] * 5) + fresh_odd_curve().term(lam)

    def test_kkt_residual_within_tolerance(self, golden_network):
        solution = solvers._power_allocation_detailed([1, 3, 6, 9], golden_network, 30.0)
        assert solution.kkt_residual <= 1e-6 * max(solution.multiplier, 1e-300)
        assert not solution.fallback

    def test_matches_grid_search(self):
        results = verify.check_p3()
        assert all(r.passed for r in results), [r.line() for r in results]

    def test_projection_helper(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            v = rng.uniform(-3, 3, size=int(rng.integers(1, 8)))
            total = float(rng.uniform(0.5, 10))
            proj = solvers._project_budget(v, total)
            assert np.all(proj >= 0.0)
            assert proj.sum() == pytest.approx(total, rel=1e-9)
        feasible = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(solvers._project_budget(feasible, 6.0), feasible)

    def test_fallback_on_non_monotone_derivative(self):
        # Synthetic rising derivative defeats the dual method; the solver
        # must warn, switch to projected gradient, and stay feasible.
        t_primes = [lambda p: 1.0 + 0.1 * p, lambda p: 2.0 / (1.0 + p)]
        with pytest.warns(ConcavityWarning):
            solution = solvers._allocate_power_core(
                [solvers._Curve(tp, 8.0) for tp in t_primes], 8.0)
        assert solution.fallback
        assert np.all(solution.powers >= 0.0)
        assert solution.powers.sum() == pytest.approx(8.0, rel=1e-6)

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


class TestGreedy:
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


def _twin_network(golden, picks=(3, 0, 3, 5, 0, 7, 3, 11, 0, 15, 5, 5)):
    """Golden sensors picked by index, with repeats; the default repeats 3, 0 and 5 thrice."""
    return model.Network(sensors=tuple(golden.sensors[i] for i in picks), prior=golden.prior)


def _greedy_every_candidate(network, p_tot, eps0):
    """Greedy without bounds: every inactive candidate gets a split each round.

    Every candidate's split builds one curve per sensor, twins included, so
    no work is shared between twins.

    Returns the allocation and, per round, the accepted set, its powers, its
    multiplier (t'(p_tot) for one sensor) and every candidate's objective.
    """
    k = network.k
    active = []
    inactive = list(range(k))
    objective_prev = 1e-12
    accepted_powers = np.zeros(k)
    lam = math.nan
    diagnostics = []
    fallback_seen = False
    rounds = 0
    history = []
    while inactive:
        best_obj = -math.inf
        best_j = None
        best_solution = None
        objectives = {}
        for j in inactive:
            candidate = active + [j]
            solution = solvers._allocate_power_core(
                [solvers._Curve(fisher.InfoKernel(network.sensors[i], network.prior).t_prime,
                                p_tot) for i in candidate], p_tot)
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
        history.append((list(active), accepted_powers, lam, objectives))
        if (best_obj - objective_prev) / objective_prev <= eps0:
            break
        active.append(best_j)
        inactive.remove(best_j)
        accepted_powers = np.zeros(k)
        accepted_powers[active] = best_solution.powers
        fallback_seen = fallback_seen or best_solution.fallback
        lam = best_solution.multiplier
        objective_prev = best_obj
        rounds += 1
        diagnostics.append((rounds, best_obj))
    selection = np.zeros(k)
    selection[active] = 1
    label = "greedy(pg-fallback)" if fallback_seen else "greedy"
    objective = fisher.trace_fim(accepted_powers, selection, network)
    alloc = solvers._finish(selection, accepted_powers, objective, label, rounds, diagnostics)
    return alloc, history


_PRUNING_NETWORKS = {
    "golden": lambda golden: golden,
    "homogeneous-6": lambda golden: model.homogeneous_network(6),
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
    ("deployment-44-8", 20.0, solvers.DEFAULT_EPS0),
    ("deployment-46-8", 3.0, solvers.DEFAULT_EPS0),
    ("golden-twins", 15.0, 1e-6),
    ("golden-twin-slots", 15.0, 1e-6),
], ids=lambda case: f"{case[0]}@{case[1]:g}")
def every_candidate(request):
    name, p_tot, eps0 = request.param
    network = _PRUNING_NETWORKS[name](request.getfixturevalue("golden_network"))
    return network, p_tot, eps0, _greedy_every_candidate(network, p_tot, eps0)


class TestGreedyPruning:
    def test_identical_to_solving_every_candidate(self, every_candidate):
        network, p_tot, eps0, (reference, _) = every_candidate
        alloc = solvers.solve_greedy(network, p_tot, eps0)
        assert alloc.selection.tolist() == reference.selection.tolist()
        assert alloc.powers.tolist() == reference.powers.tolist()
        assert alloc.objective == reference.objective
        assert alloc.diagnostics == reference.diagnostics
        assert alloc.iterations == reference.iterations
        assert alloc.algorithm == reference.algorithm

    def test_every_candidate_within_its_bound(self, every_candidate):
        network, p_tot, _, (_, history) = every_candidate
        kernels = [fisher.InfoKernel(s, network.prior) for s in network.sensors]
        curves = [solvers._Curve(kern.t_prime, p_tot, kern.t_checked) for kern in kernels]
        checked = 0
        for active, powers, lam, objectives in history[1:]:
            ub = solvers._dual_bounds(curves, network.prior.inverse_trace, p_tot, lam,
                                      active, powers, list(objectives))
            assert set(ub) == set(objectives)
            assert all(math.isfinite(u) for u in ub.values())
            for j, objective in objectives.items():
                assert objective <= ub[j] * (1.0 + 1e-12), (active, j)
                checked += 1
        assert checked > 0

    def test_golden_p5_solves_one_candidate_after_round_one(self, golden_network,
                                                           monkeypatch):
        sizes = []
        core = solvers._allocate_power_core

        def counted(curves, p_tot):
            sizes.append(len(curves))
            return core(curves, p_tot)

        monkeypatch.setattr(solvers, "_allocate_power_core", counted)
        alloc = solvers.solve_greedy(golden_network, 5.0)
        assert alloc.num_selected == 2
        assert sizes == [1] * 20 + [2]

    def test_each_endpoint_slope_evaluated_once(self, golden_network, monkeypatch):
        # The splits and the bound share one curve per sensor, so t' is taken
        # at most once at the power floor and once at p_tot for each sensor.
        p_tot = 5.0
        endpoints = (solvers.POWER_FLOOR_SCALE * p_tot, p_tot)
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
        # curve takes t' once at the power floor and once at p_tot.
        p_tot = 5.0
        sizes = []
        core = solvers._allocate_power_core

        def counted_core(curves, p_tot):
            sizes.append(len(curves))
            return core(curves, p_tot)

        endpoints = []
        t_prime = fisher.InfoKernel.t_prime

        def counted_t_prime(self, power):
            if power in (solvers.POWER_FLOOR_SCALE * p_tot, p_tot):
                endpoints.append(power)
            return t_prime(self, power)

        monkeypatch.setattr(solvers, "_allocate_power_core", counted_core)
        monkeypatch.setattr(fisher.InfoKernel, "t_prime", counted_t_prime)
        alloc = solvers.solve_greedy(model.homogeneous_network(10), p_tot, eps0=1e-5)
        assert alloc.num_selected == 10
        assert sizes == list(range(1, 11))
        assert endpoints == [solvers.POWER_FLOOR_SCALE * p_tot, p_tot]

    def test_equal_objectives_go_to_the_lower_index(self, monkeypatch):
        # Bounds that put higher indices first, and every candidate tied: the
        # lowest index must still win, as when every candidate is solved in order.
        monkeypatch.setattr(solvers, "_dual_bounds",
                            lambda curves, baseline, p_tot, lam, active, powers, candidates:
                            {j: 100.0 + j for j in candidates})
        monkeypatch.setattr(solvers, "trace_fim", lambda powers, selection, network: 10.0)
        alloc = solvers.solve_greedy(model.generate_deployment(44, 4), 5.0)
        assert alloc.selection.tolist() == [1, 0, 0, 0]


class TestMckp:
    def test_all_zero_table_selects_nothing(self):
        grid = solvers.make_power_grid(10.0, 5)
        table = np.zeros((3, 6))
        alloc = solvers.solve_mckp(table, grid, 10.0, baseline=17.0 / 3.0)
        assert alloc.num_selected == 0
        assert alloc.objective == pytest.approx(17.0 / 3.0)
        np.testing.assert_array_equal(alloc.powers, np.zeros(3))

    def test_matches_enumeration(self):
        results = verify.check_mckp(instances=50)
        assert all(r.passed for r in results), [r.line() for r in results]

    def test_grid_mismatch(self):
        grid = solvers.make_power_grid(10.0, 5)
        with pytest.raises(GridMismatch):
            solvers.solve_mckp(np.zeros((3, 7)), grid, 10.0)
        with pytest.raises(GridMismatch):
            solvers.solve_mckp(np.ones((3, 6)), grid, 10.0)  # nonzero first column
        with pytest.raises(GridMismatch):
            solvers.solve_mckp(np.zeros((3, 6)), grid, 11.0)  # wrong budget

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
        grid = solvers.make_power_grid(4.0, 4)
        table = np.zeros((2, 5))
        alloc = solvers.solve_mckp(table, grid, 4.0)
        np.testing.assert_array_equal(alloc.powers, np.zeros(2))


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
            dp = solvers.solve_mckp(table, grid, p_tot,
                                    baseline=net.prior.inverse_trace)
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
