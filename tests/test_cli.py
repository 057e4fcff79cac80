import json

import numpy as np
import pytest

from fimalloc import cli, model, solvers


def run(argv):
    return cli.main(argv)


class TestGen:
    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["gen", "--k", "5", "--seed", "3", "--out", str(a)]) == 0
        assert run(["gen", "--k", "5", "--seed", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        out = capsys.readouterr().out
        assert "K=5" in out and "seed=3" in out

    def test_homogeneous_gain(self, tmp_path):
        path = tmp_path / "hom.json"
        assert run(["gen", "--homogeneous", "--k", "4", "--gain", "0.6,0.8",
                    "--out", str(path)]) == 0
        net = model.load_scenario(path)
        assert net.k == 4
        for sensor in net.sensors:
            np.testing.assert_allclose(sensor.gain, [0.6, 0.8])

    def test_generation_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        code = run(["gen", "--k", "4", "--d-min", "5.0", "--out", str(path)])
        assert code == 3
        assert "generation failed" in capsys.readouterr().err
        code = run(["gen", "--k", "4", "--bits", str(model.MAX_BITS + 1), "--out", str(path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "generation failed" in err and "bits" in err


class TestSolve:
    def test_ufa_selects_all(self, golden_scenario_path, capsys):
        code = run(["solve", "--scenario", str(golden_scenario_path),
                    "--alg", "ufa", "--ptot", "30"])
        assert code == 0
        assert "selected=20" in capsys.readouterr().out

    def test_brute_too_large(self, golden_scenario_path, capsys):
        code = run(["solve", "--scenario", str(golden_scenario_path),
                    "--alg", "brute", "--ptot", "30"])
        assert code == 4
        assert "TooLarge" in capsys.readouterr().err

    def test_mckp_allocation_csv_roundtrip(self, golden_scenario_path, golden_network,
                                           tmp_path):
        out = tmp_path / "alloc.csv"
        code = run(["solve", "--scenario", str(golden_scenario_path), "--alg", "mckp",
                    "--ptot", "30", "--grid-n", "100", "--out", str(out)])
        assert code == 0
        header, selection, powers = cli.read_allocation_csv(out)
        assert header["algorithm"] == "mckp"
        assert float(header["ptot"]) == 30.0
        assert powers.sum() <= 30.0 * (1 + 1e-9)
        alloc = solvers.solve_mckp_network(golden_network, 30.0, 100)
        np.testing.assert_array_equal(selection, alloc.selection)
        np.testing.assert_array_equal(powers, alloc.powers)
        assert float(header["objective"]) == alloc.objective

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--alg", "nope", "--ptot", "1", "--scenario", "x"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, argv", [
        ("--ptot", ["solve", "--alg", "ufa", "--ptot", "0"]),
        ("--grid-n", ["solve", "--alg", "mckp", "--ptot", "5", "--grid-n", "0"]),
        ("--eps0", ["solve", "--alg", "greedy", "--ptot", "5", "--eps0", "0"]),
        ("--ptot", ["solve", "--alg", "ufa", "--ptot", "nan"]),
        ("--ptot-min", ["sweep", "--ptot-min", "-1", "--ptot-max", "5", "--out", "x"]),
        ("--ptot-max", ["sweep", "--ptot-min", "1", "--ptot-max", "0", "--out", "x"]),
        ("--steps", ["sweep", "--ptot-min", "1", "--ptot-max", "5", "--steps", "0",
                     "--out", "x"]),
        ("--trials", ["verify", "--suite", "mckp", "--trials", "-1"]),
    ])
    def test_bad_numeric_flag_exits_two(self, flag, argv, golden_scenario_path, capsys):
        if argv[0] != "verify":
            argv = argv + ["--scenario", str(golden_scenario_path)]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("keys, value, where", [
        (("sensors", 0, "gain"), [float("nan"), 1.0], "sensors[0]"),
        (("sensors", 0, "sigma_n"), -1, "sensors[0]"),
        (("sensors", 0, "bits"), "three", "sensors[0]"),
        (("prior", "covariance"), [[float("nan"), 0.5], [0.5, 0.25]], "prior.covariance"),
        (("geometry", "seed"), "x", "geometry"),
        (("sensors", 0, "bits"), 3.7, "sensors[0].bits"),
        (("sensors", 0, "bits"), True, "sensors[0].bits"),
        (("geometry", "seed"), 42.7, "geometry.seed"),
        (("geometry", "seed"), True, "geometry.seed"),
        (("sensors", 0, "bits"), 9, "sensors[0]"),
        (("sensors", 3, "sigma_n"), True, "sensors[3].sigma_n"),
        (("sensors", 3, "gain"), [True, 0.5], "sensors[3].gain"),
    ])
    def test_bad_scenario_value_exits_three(self, keys, value, where, golden_scenario_path,
                                            tmp_path, capsys):
        payload = json.loads(golden_scenario_path.read_text())
        parent = payload
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code = run(["solve", "--scenario", str(path), "--alg", "ufa", "--ptot", "5"])
        assert code == 3
        err = capsys.readouterr().err
        assert "cannot load scenario" in err and where in err

    @pytest.mark.parametrize("name", ["ufa", "usu", "greedy", "mckp", "brute"])
    def test_solver_table_matches_cli(self, name, tmp_path):
        assert set(solvers.SOLVERS) == {"ufa", "usu", "greedy", "mckp", "brute"}
        path = tmp_path / "s.json"
        model.save_scenario(model.generate_deployment(11, 3), path)
        direct = solvers.SOLVERS[name](model.load_scenario(path), 6.0, 6,
                                       solvers.DEFAULT_EPS0)
        out = tmp_path / "alloc.csv"
        assert run(["solve", "--scenario", str(path), "--alg", name, "--ptot", "6",
                    "--grid-n", "6", "--out", str(out)]) == 0
        header, _, _ = cli.read_allocation_csv(out)
        assert float(header["objective"]) == direct.objective
        rows_out = tmp_path / "sweep.csv"
        assert run(["sweep", "--scenario", str(path), "--alg", name, "--ptot-min", "6",
                    "--ptot-max", "6", "--steps", "1", "--grid-n", "6",
                    "--out", str(rows_out)]) == 0
        assert cli.read_sweep_csv(rows_out)[0]["tr_j"] == direct.objective


@pytest.fixture(scope="module")
def small_scenario(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "s.json"
    model.save_scenario(model.generate_deployment(11, 4), path)
    return path


class TestSweep:
    def test_rows_and_roundtrip(self, small_scenario, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--scenario", str(small_scenario), "--alg", "ufa,usu",
                    "--ptot-min", "5", "--ptot-max", "15", "--steps", "3",
                    "--out", str(out)])
        assert code == 0
        rows = cli.read_sweep_csv(out)
        assert len(rows) == 6  # 3 budgets x 2 algorithms
        keys = [(r["ptot"], r["algorithm"]) for r in rows]
        assert keys == sorted(keys)
        for row in rows:
            assert row["tr_j"] >= 17.0 / 3.0
            assert 0 <= row["num_selected"] <= 4

    def test_failed_cells_become_nan_rows(self, golden_scenario_path, tmp_path,
                                          capsys):
        # brute refuses K=20, so every cell fails; the sweep still writes
        # rows and exits 0 with a warning.
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--scenario", str(golden_scenario_path), "--alg", "brute",
                    "--ptot-min", "5", "--ptot-max", "10", "--steps", "2",
                    "--out", str(out)])
        assert code == 0
        assert "failed cell" in capsys.readouterr().err
        rows = cli.read_sweep_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert np.isnan(row["tr_j"])
            assert "TooLarge" in row["diagnostic"]

    def test_deterministic_data_columns(self, small_scenario, tmp_path):
        outs = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            run(["sweep", "--scenario", str(small_scenario), "--alg", "usu",
                 "--ptot-min", "4", "--ptot-max", "8", "--steps", "2",
                 "--out", str(out)])
            rows = cli.read_sweep_csv(out)
            outs.append([
                {k: v for k, v in row.items() if k != "wall_time_ms"}
                for row in rows
            ])
        assert outs[0] == outs[1]


class TestVerifyCommand:
    def test_passing_suite(self, capsys):
        assert run(["verify", "--suite", "mckp", "--trials", "20"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "checks passed" in out

    def test_failing_suite_exits_five(self, monkeypatch, capsys):
        from fimalloc import verify as verify_mod

        def fake_check(seed=0):
            return [verify_mod.CheckResult(name="fake", passed=False,
                                           measured=9.0, threshold=1.0)]

        monkeypatch.setitem(verify_mod.SUITES, "mckp", fake_check)
        assert run(["verify", "--suite", "mckp"]) == 5
        assert "[FAIL]" in capsys.readouterr().out
