import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fimalloc
from fimalloc import cli, model, solvers
from conftest import golden_with, make_slope_rise


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
        code = run(["gen", "--k", "3", "--sigma-n", "1e200", "--out", str(path)])
        assert code == 3
        assert "generation failed: sigma_n must be" in capsys.readouterr().err


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

    def test_rising_slope_exits_four(self, golden_scenario_path, golden_network, monkeypatch,
                                     capsys):
        make_slope_rise(monkeypatch, golden_network.sensors[3])
        code = run(["solve", "--scenario", str(golden_scenario_path),
                    "--alg", "greedy", "--ptot", "5"])
        assert code == 4
        assert "solver failed: ConcavityViolation: " in capsys.readouterr().err

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
        ("--seed", ["verify", "--suite", "grad", "--seed", "-1"]),
        ("--seed", ["verify", "--suite", "all", "--seed", "-250"]),
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
        (("geometry", "d_min"), True, "geometry.d_min"),
        (("geometry", "decay_exponent"), "2", "geometry.decay_exponent"),
        (("geometry", "source_positions", 0, 1), True, "geometry.source_positions"),
        (("prior", "covariance"), [[True, 0.0], [0.0, True]], "prior.covariance"),
        (("sensors", 0, "bits"), 9, "sensors[0].bits must be in [1, 8], got 9"),
        # Malformed geometry: these once loaded, and the solve exited 0.
        (("geometry", "sensor_positions"), [[0.1, 0.2]] * 3,
         "geometry.sensor_positions has 3 rows for 20 sensors"),
        (("geometry", "sensor_positions"), [[0.1, 0.2, 0.3]] * 20,
         "geometry.sensor_positions must have shape (K, 2), got (20, 3)"),
        (("geometry", "sensor_positions", 5, 0), float("nan"),
         "geometry.sensor_positions must be finite, got nan at [5, 0]"),
        (("geometry", "source_positions"), [1.0],
         "geometry.source_positions must have shape (2, 2), got (1,)"),
        (("geometry", "field_half_width"), -1.0,
         "geometry.field_half_width must be positive and finite, got -1.0"),
        (("geometry", "d_min"), float("nan"), "geometry.d_min must be positive and finite, got nan"),
        (("geometry", "decay_exponent"), float("inf"),
         "geometry.decay_exponent must be finite, got inf"),
        (("sensors", 3, "gain"), [1.0, 2.0, 3.0],
         "sensors[3].gain has dimension 3, prior has q=2"),
        # These once loaded and solved, exited 3 unnamed, or exited 1 with a traceback.
        (("version",), True, "scenario declares version True"),
        (("geometry", "seed"), -1, "geometry.seed must be nonnegative, got -1"),
        (("prior", "covariance"), [[4.0, 0.5], [0.6, 0.25]], "prior.covariance is not symmetric"),
        (("prior", "covariance"), [[-4.0, -0.5], [-0.5, -0.25]],
         "prior.covariance must be positive definite"),
        (("sensors", 0, "gain"), [1e200, 1e200], "sensors[0].gain must keep gain' C gain finite"),
        (("sensors", 0, "sigma_n"), 1e-300, "sensors[0].sigma_n must be such that"),
        (("sensors", 0, "sigma_n"), 1e-155, "sensors[0].sigma_n must be such that"),
        # Tables that would grow past MAX_RESOLUTION: a traceback, or a z^2 overflow.
        (("sensors", 0, "gain"), [1e150, 1e150], "sensors[0].gain must keep 2**bits"),
        (("sensors", 0, "tau"), 1e300, "sensors[0].tau must keep 2**bits"),
        # A large prior covariance is named, not the first sensor's gain.
        (("prior", "covariance"), [[1e20, 0.0], [0.0, 1e20]],
         "prior.covariance, for sensors[0], must keep 2**bits"),
        (("prior", "covariance"), [[1e308, 0.0], [0.0, 1e308]],
         "prior.covariance, for sensors[0], must keep gain' C gain finite"),
        # A small sigma_n is named, not the generator's own tau beside it.
        (("sensors", 4, "sigma_n"), 1e-6, "sensors[4].sigma_n must keep 2**bits"),
        # A link whose (h_mag / sigma_nu) ** 2 overflows: greedy once exited 1
        # with an OverflowError from t' at zero power, and ufa solved it.
        (("sensors", 0, "h_mag"), 1e300, "sensors[0].h_mag must keep (h_mag / sigma_nu) ** 2"),
        (("sensors", 0, "sigma_nu"), 1e-300,
         "sensors[0].sigma_nu must keep (h_mag / sigma_nu) ** 2"),
    ])
    def test_bad_scenario_value_exits_three(self, keys, value, where, golden_scenario_path,
                                            tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(golden_with(golden_scenario_path, keys, value)))
        code = run(["solve", "--scenario", str(path), "--alg", "ufa", "--ptot", "5"])
        assert code == 3
        err = capsys.readouterr().err
        assert "cannot load scenario" in err and where in err

    @pytest.mark.parametrize("alg", ["ufa", "usu", "greedy", "mckp", "brute"])
    def test_strong_link_exits_three_for_every_algorithm(self, alg, golden_scenario_path,
                                                         tmp_path, capsys):
        path = tmp_path / "strong.json"
        path.write_text(json.dumps(golden_with(golden_scenario_path, ("sensors", 0, "h_mag"),
                                               1e300)))
        code = run(["solve", "--scenario", str(path), "--alg", alg, "--ptot", "5"])
        assert code == 3
        assert "sensors[0].h_mag must keep" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [b"\xff\xfe\x00", b"[" * 100_000],
                             ids=["not-utf8", "nested-100000-deep"])
    def test_unreadable_scenario_exits_three(self, text, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        code = run(["solve", "--scenario", str(path), "--alg", "ufa", "--ptot", "5"])
        assert code == 3
        assert "cannot load scenario" in capsys.readouterr().err

    def test_unwritable_out_exits_two(self, golden_scenario_path, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "alloc.csv"
        code = run(["solve", "--scenario", str(golden_scenario_path), "--alg", "ufa",
                    "--ptot", "5", "--out", str(out)])
        assert code == 2
        assert "--out" in capsys.readouterr().err

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

    def test_unwritable_out_exits_two_before_solving(self, small_scenario, tmp_path,
                                                     monkeypatch, capsys):
        def no_solve(*args):
            raise AssertionError("a solve ran before --out was checked")

        monkeypatch.setitem(solvers.SOLVERS, "ufa", no_solve)
        out = tmp_path / "no" / "such" / "dir" / "sweep.csv"
        code = run(["sweep", "--scenario", str(small_scenario), "--alg", "ufa",
                    "--out", str(out)])
        assert code == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--ptot-min", "5"], "sweep needs both --ptot-min and --ptot-max"),
        (["--ptot-min", "50", "--ptot-max", "5"], "sweep grid must be ascending"),
        (["--alg", "ufa,nope"], "unknown algorithm 'nope'"),
    ], ids=["min-without-max", "descending", "unknown-algorithm"])
    def test_bad_sweep_request_exits_two(self, argv, message, small_scenario, tmp_path,
                                         capsys):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--scenario", str(small_scenario), *argv, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

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


def _heavy_modules_after(code: str) -> list:
    """The scipy and numpy.polynomial modules a fresh interpreter holds after running code."""
    code = (
        "import json, sys\n" + code +
        "print(json.dumps(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'\n"
        "                        or name.startswith('numpy.polynomial'))))\n"
    )
    src = str(Path(fimalloc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_import_loads_only_numpy():
    # The package imports only numpy (scipy comes with the bench extra alone),
    # and its quadrature rule needs no numpy.polynomial, whose import takes
    # several milliseconds of every CLI call.
    assert _heavy_modules_after("import fimalloc.cli\n") == []


def test_cli_and_solves_load_no_scipy():
    # Every CLI call is a fresh interpreter, and importing scipy.special alone
    # takes about 0.3 s, so the package must not pull in scipy anywhere; nor
    # numpy.polynomial, when a solve first builds its quadrature rule.
    assert _heavy_modules_after(
        "import fimalloc.cli\n"
        "from fimalloc import model, solvers\n"
        "network = model.homogeneous_network(3)\n"
        "solvers.solve_greedy(network, 5.0)\n"
        "solvers.solve_mckp_network(network, 5.0)\n"
    ) == []
