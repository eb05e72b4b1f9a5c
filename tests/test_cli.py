"""Command-line interface: schemas, manifests, exit codes, reproducibility."""

import json
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import rgg_spectra
from rgg_spectra import analytic_spectrum, specdim, spectra, torus
from rgg_spectra.cli import (
    EXIT_CAPACITY,
    EXIT_ESTIMATION,
    EXIT_OK,
    EXIT_USAGE,
    THREADS_ENV,
    main,
)
from rgg_spectra.specdim import MC_BATCH


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


def snapshot(outdir):
    return {p.name: p.read_bytes() for p in outdir.iterdir()}


def assert_same_run(before, after):
    """Byte-identical outputs; manifests may differ only in wall time."""
    assert sorted(before) == sorted(after)
    for name, blob in before.items():
        if name == "manifest.json":
            ma, mb = json.loads(blob), json.loads(after[name])
            ma.pop("wall_seconds")
            mb.pop("wall_seconds")
            assert ma == mb
        else:
            assert blob == after[name], name


class TestSpectrumCommand:
    def test_rgg_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["spectrum", "--kind", "rgg", "--d", "2", "--n", "64",
                     "--gamma", "6", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        assert {p.name for p in out.iterdir()} == {
            "points.csv", "graph.csv", "eigenvalues.csv", "manifest.json"}
        header, rows = read_csv(out / "eigenvalues.csv")
        assert header == ["index", "lambda"]
        lam = np.array([float(r[1]) for r in rows])
        assert lam.size == 64
        assert np.all(np.diff(lam) >= 0)
        assert lam[0] >= -1e-10 and lam[-1] <= 2 + 1e-10
        assert "mean_degree" in capsys.readouterr().out

    def test_dgg_comparison_file(self, tmp_path):
        out = tmp_path / "run"
        code = main(["spectrum", "--kind", "dgg", "--d", "1", "--N", "32",
                     "--gamma-prime", "4", "--alpha", "0.1", "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out / "comparison.csv")
        assert header == ["index", "numeric", "analytic", "abs_diff"]
        assert max(float(r[3]) for r in rows) <= 1e-10
        gheader, _ = read_csv(out / "graph.csv")
        assert gheader[0] == "dgg"

    def test_dgg_explicit_radius_skips_comparison(self, tmp_path):
        out = tmp_path / "run"
        code = main(["spectrum", "--kind", "dgg", "--d", "1", "--N", "32",
                     "--radius", "0.08", "--out", str(out)])
        assert code == EXIT_OK
        assert not (out / "comparison.csv").exists()

    def test_missing_size_is_usage_error(self, tmp_path, capsys):
        code = main(["spectrum", "--kind", "rgg", "--gamma", "6",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_unknown_kind_rejected_by_parser(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--kind", "bogus", "--N", "16",
                  "--gamma-prime", "4", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err and "rgg" in err and "dgg" in err

    def test_oversized_order_is_capacity_error(self, tmp_path, capsys):
        code = main(["spectrum", "--kind", "dgg", "--d", "1", "--N", "8200",
                     "--radius", "0.0002", "--out", str(tmp_path / "x")])
        assert code == EXIT_CAPACITY
        assert "dense cap" in capsys.readouterr().err
        assert not (tmp_path / "x" / "graph.csv").exists()


class TestAnalyticSpectrumCommand:
    def test_modes_and_eigenvalues_round_trip(self, tmp_path):
        out = tmp_path / "run"
        code = main(["analytic-spectrum", "--d", "2", "--N", "6",
                     "--gamma-prime", "8", "--alpha", "0.1", "--out", str(out)])
        assert code == EXIT_OK
        mheader, mrows = read_csv(out / "modes.csv")
        assert mheader == ["m1", "m2", "w", "lambda"]
        assert len(mrows) == 36
        eheader, erows = read_csv(out / "eigenvalues.csv")
        assert eheader == ["index", "lambda"]
        lam = np.array([float(r[1]) for r in erows])
        # 17 significant digits round-trip the float64 values exactly
        assert np.array_equal(lam, analytic_spectrum(6, 8, 0.1, 2))

    def test_gamma_resolves_to_grid_degree(self, tmp_path):
        out = tmp_path / "run"
        code = main(["analytic-spectrum", "--d", "1", "--N", "16",
                     "--gamma", "2", "--out", str(out)])
        assert code == EXIT_OK
        assert read_manifest(out)["config"]["gamma"] == 2.0

    def test_perfect_power_gamma_resolves_exactly(self, tmp_path, capsys):
        # 64 ** (1/3) is 3.9999999999999996; the stencil half-width is 4
        code = main(["analytic-spectrum", "--d", "3", "--N", "9",
                     "--gamma", "64", "--out", str(tmp_path / "run")])
        assert code == EXIT_OK
        assert "gamma_prime=728 " in capsys.readouterr().out

    @pytest.mark.parametrize("gamma_prime,alpha,message", [
        ("0", "0", "minimum degree"),
        ("2", "-0.5", "alpha must be nonnegative"),
        ("4", "nan", "finite"),
        ("4", "inf", "finite"),
    ])
    def test_invalid_alpha_is_usage_error(self, tmp_path, capsys, gamma_prime,
                                          alpha, message):
        out = tmp_path / "x"
        code = main(["analytic-spectrum", "--d", "1", "--N", "8",
                     "--gamma-prime", gamma_prime, "--alpha", alpha,
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_invalid_grid_degree_is_usage_error(self, tmp_path, capsys):
        code = main(["analytic-spectrum", "--d", "1", "--N", "16",
                     "--gamma-prime", "5", "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert "stencil" in capsys.readouterr().err


class TestLevyCommand:
    def test_convergence_table(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["levy", "--d", "1", "--gamma", "4", "--n-list", "64,128",
                     "--seeds", "2", "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out / "convergence.csv")
        assert header == ["n", "seed", "gamma", "gamma_prime", "alpha",
                          "levy", "levy_cubed", "threshold", "exceeds"]
        assert len(rows) == 4
        assert {r[0] for r in rows} == {"64", "128"}
        assert all(r[8] in ("0", "1") for r in rows)
        stdout = capsys.readouterr().out
        assert "n=64 trials=2" in stdout and "median_levy=" in stdout

    def test_repeated_size_is_usage_error(self, tmp_path, capsys):
        code = main(["levy", "--d", "1", "--gamma", "4", "--n-list", "64,64",
                     "--seeds", "2", "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "repeated size" in captured.err and "trials=" not in captured.out

    def test_zero_seeds_is_usage_error(self, tmp_path):
        code = main(["levy", "--seeds", "0", "--n-list", "64",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE


class TestSpecdimCommand:
    def test_estimates_and_taylor_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["specdim", "--d", "1", "--N", "512", "--gamma-prime", "16",
                     "--alpha", "0.1", "--methods", "cdf,heat", "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out / "estimates.csv")
        assert header == ["method", "d_s", "slope", "window_lo", "window_hi",
                          "r_squared", "n_points"]
        assert [r[0] for r in rows] == ["cdf_slope", "heat_trace"]
        for r in rows:
            assert abs(float(r[1]) - 1.0) < 0.5
        theader, trows = read_csv(out / "taylor_curve.csv")
        assert theader == ["w", "lambda_exact", "lambda_taylor", "rel_dev"]
        assert len(trows) == 401
        hheader, hrows = read_csv(out / "heat_trace.csv")
        assert hheader == ["t", "p0", "p0_minus_offset"]
        assert len(hrows) == 200
        stdout = capsys.readouterr().out
        assert "cdf_slope: d_s=" in stdout and "heat_trace: d_s=" in stdout

    def test_mc_method_writes_returns(self, tmp_path):
        out = tmp_path / "run"
        code = main(["specdim", "--d", "1", "--N", "128", "--gamma-prime", "16",
                     "--methods", "mc", "--walkers", "20000", "--tmax", "64",
                     "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out / "mc_returns.csv")
        assert header == ["t", "return_freq", "stderr"]
        assert len(rows) == 65
        assert float(rows[0][1]) == 1.0

    def test_unusable_cdf_window_is_estimation_error(self, tmp_path, capsys):
        code = main(["specdim", "--d", "1", "--N", "64", "--gamma-prime", "4",
                     "--methods", "cdf", "--out", str(tmp_path / "x")])
        assert code == EXIT_ESTIMATION
        assert "distinct nonzero eigenvalues" in capsys.readouterr().err

    def test_unknown_method_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["specdim", "--methods", "cdf,bogus", "--N", "64",
                  "--gamma-prime", "4", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2


class TestDiffusionCommand:
    def test_writes_both_curves(self, tmp_path):
        out = tmp_path / "run"
        code = main(["diffusion", "--d", "1", "--N", "64", "--gamma-prime", "4",
                     "--walkers", "5000", "--tmax", "32", "--out", str(out),
                     "--svg"])
        assert code == EXIT_OK
        names = {p.name for p in out.iterdir()}
        assert {"heat_trace.csv", "mc_returns.csv", "heat_trace.svg",
                "mc_returns.svg", "manifest.json"} <= names
        svg = (out / "heat_trace.svg").read_text()
        assert svg.startswith("<svg") and svg.count("<polyline") == 1


class TestUsageErrors:
    @pytest.mark.parametrize("argv,message", [
        (["analytic-spectrum", "--d", "0", "--N", "8", "--gamma-prime", "4"],
         "d must be at least 1"),
        (["specdim", "--d", "0", "--N", "8", "--gamma", "8", "--methods",
          "cdf"], "d must be at least 1"),
        (["levy", "--d", "0", "--gamma", "8", "--n-list", "64", "--seeds",
          "1"], "d must be at least 1"),
        (["spectrum", "--kind", "rgg", "--d", "0", "--n", "64", "--gamma",
          "4"], "d must be at least 1"),
        (["analytic-spectrum", "--d", "1", "--N", "8", "--gamma", "inf"],
         "finite"),
        (["levy", "--gamma", "inf", "--n-list", "64", "--seeds", "1"],
         "finite"),
        (["spectrum", "--kind", "rgg", "--d", "1", "--n", "64", "--gamma",
          "4", "--alpha", "nan"], "finite"),
        (["spectrum", "--kind", "dgg", "--d", "1", "--N", "16",
          "--gamma-prime", "4", "--alpha", "inf"], "finite"),
        (["levy", "--alpha", "nan", "--n-list", "64", "--seeds", "1"],
         "finite"),
        (["spectrum", "--kind", "rgg", "--d", "1", "--n", "64", "--gamma",
          "0.01", "--alpha", "0"], "isolated vertex"),
        (["spectrum", "--kind", "rgg", "--d", "1", "--n", "64", "--gamma",
          "nan"], "gamma must be positive"),
        (["specdim", "--N", "8"], "need --gamma or --gamma-prime"),
        (["spectrum", "--kind", "rgg", "--d", "1", "--n", "64", "--gamma",
          "4", "--seed", "-1"], "--seed must be >= 0"),
        (["specdim", "--d", "1", "--N", "64", "--gamma-prime", "4",
          "--methods", "mc", "--seed", "-1"], "--seed must be >= 0"),
        (["diffusion", "--d", "1", "--N", "64", "--gamma-prime", "4",
          "--seed", "-1"], "--seed must be >= 0"),
        # the explicit-radius branch, and the lattice that every other
        # grid command reads
        (["spectrum", "--kind", "dgg", "--d", "2", "--N", "-4", "--radius",
          "0.3"], "--N must be >= 1"),
        (["spectrum", "--kind", "dgg", "--d", "2", "--N", "0", "--radius",
          "0.3"], "--N must be >= 1"),
        (["analytic-spectrum", "--d", "2", "--N", "-4", "--gamma-prime",
          "8"], "--N must be >= 1"),
        (["specdim", "--d", "1", "--N", "0", "--gamma-prime", "4"],
         "--N must be >= 1"),
    ])
    def test_bad_parameter_exits_two(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("argv", [
        ["levy", "--n-list", ","],
        ["specdim", "--N", "64", "--gamma-prime", "4", "--methods", ","],
    ], ids=["n-list", "methods"])
    def test_empty_list_rejected_by_parser(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "x")])
        assert exc.value.code == EXIT_USAGE
        assert f"{argv[-2]}: invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["nan", "-1", "inf"])
    def test_bad_alpha_rejected_before_sampling(self, tmp_path, capsys,
                                                monkeypatch, alpha):
        calls = []
        sample = torus.sample_uniform_points

        def spy(*args):
            calls.append(args)
            return sample(*args)

        monkeypatch.setattr(torus, "sample_uniform_points", spy)
        out = tmp_path / "x"
        code = main(["spectrum", "--kind", "rgg", "--d", "2", "--n", "4096",
                     "--gamma", "8", f"--alpha={alpha}", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "alpha must be nonnegative and finite" in capsys.readouterr().err
        assert calls == []
        assert not out.exists() or not any(out.iterdir())


class TestFailedRunWritesNothing:
    @pytest.mark.parametrize("argv,expected", [
        (["diffusion", "--d", "1", "--N", "64", "--gamma-prime", "4",
          "--walkers", "0"], EXIT_USAGE),
        (["specdim", "--d", "1", "--N", "512", "--gamma-prime", "16",
          "--tmax", "5"], EXIT_ESTIMATION),
        (["specdim", "--d", "1", "--N", "512", "--gamma-prime", "16",
          "--walkers", "0"], EXIT_USAGE),
    ])
    def test_out_absent_or_empty(self, tmp_path, capsys, argv, expected):
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == expected
        assert "error:" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_out_is_a_file_fails_before_work(self, tmp_path, capsys):
        out = tmp_path / "x"
        out.write_text("keep\n")
        code = main(["analytic-spectrum", "--d", "1", "--N", "8",
                     "--gamma-prime", "4", "--out", str(out)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""  # the handler prints a summary when it runs
        assert "error:" in captured.err
        assert out.read_text() == "keep\n"


class TestManifest:
    def test_structure_and_hashes(self, tmp_path):
        out = tmp_path / "run"
        main(["analytic-spectrum", "--d", "1", "--N", "16", "--gamma-prime", "4",
              "--out", str(out)])
        m = read_manifest(out)
        assert set(m) == {"blas_config", "blas_threads", "command", "config",
                          "eigensolver", "numpy_version", "outputs", "prng",
                          "scipy_version", "version", "wall_seconds"}
        assert m["numpy_version"] == np.__version__
        assert m["command"] == "analytic-spectrum"
        assert m["prng"] == "PCG64"
        assert m["version"] == rgg_spectra.__version__
        for name, digest in m["outputs"].items():
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert actual == digest
        assert set(m["outputs"]) == {"modes.csv", "eigenvalues.csv"}

    def test_config_echoes_resolved_values(self, tmp_path):
        out = tmp_path / "run"
        main(["spectrum", "--kind", "dgg", "--d", "1", "--N", "16",
              "--gamma-prime", "4", "--out", str(out)])
        cfg = read_manifest(out)["config"]
        assert cfg["kind"] == "dgg"
        assert cfg["p"] == "inf"
        assert cfg["alpha"] == 0.1
        assert cfg["svg"] is False

    def test_records_solver_route_and_threads_in_effect(self, tmp_path):
        # a fresh process, so the pin takes effect before numpy loads
        out = tmp_path / "run"
        src = os.path.dirname(os.path.dirname(rgg_spectra.__file__))
        subprocess.run([sys.executable, "-m", "rgg_spectra.cli", "spectrum",
                        "--kind", "rgg", "--d", "1", "--n", "64", "--gamma", "4",
                        "--threads", "1", "--out", str(out)],
                       env={**os.environ, "PYTHONPATH": src}, check=True,
                       capture_output=True)
        m = read_manifest(out)
        route = spectra._solver_provenance()["eigensolver"]
        assert m["eigensolver"] == route
        assert m["blas_threads"] == (1 if route == "dsyevd_2stage" else None)

    def test_threads_record_the_count_in_effect(self, tmp_path, monkeypatch):
        # numpy is loaded in this process, so --threads no longer applies
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        effective = spectra._solver_provenance()["blas_threads"]
        requested = 1 if effective != 1 else 2
        out = tmp_path / "run"
        main(["analytic-spectrum", "--d", "1", "--N", "16", "--gamma-prime",
              "4", "--threads", str(requested), "--out", str(out)])
        m = read_manifest(out)
        assert m["config"]["threads"] == requested
        assert m["blas_threads"] == effective

    def test_manifest_and_walk_read_one_thread_count(self, tmp_path,
                                                     monkeypatch):
        # without the OpenBLAS getter neither reader sees a count
        monkeypatch.setattr(spectra, "_openblas", lambda *declaration: None)
        out = tmp_path / "run"
        main(["analytic-spectrum", "--d", "1", "--N", "16", "--gamma-prime",
              "4", "--out", str(out)])
        assert read_manifest(out)["blas_threads"] is None
        assert specdim._walk_threads(10 ** 6) == 1


class TestConfigFile:
    def test_file_fills_gaps_and_flags_win(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# grid settings\n"
            "N = 16\n"
            "gamma-prime = 4  # hyphen form accepted\n"
            "alpha = 0.3\n")
        out = tmp_path / "run"
        code = main(["analytic-spectrum", "--config", str(cfg_file),
                     "--alpha", "0.5", "--out", str(out)])
        assert code == EXIT_OK
        cfg = read_manifest(out)["config"]
        assert cfg["N"] == 16
        assert cfg["gamma_prime"] == 4
        assert cfg["alpha"] == 0.5  # explicit flag beats the file

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("N = 16\nbogus = 1\n")
        code = main(["analytic-spectrum", "--config", str(cfg_file),
                     "--gamma-prime", "4", "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert "unknown config keys: bogus" in capsys.readouterr().err

    def test_malformed_line_reports_location(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("N = 16\nnot a pair\n")
        code = main(["analytic-spectrum", "--config", str(cfg_file),
                     "--gamma-prime", "4", "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert f"{cfg_file}:2" in capsys.readouterr().err

    def test_svg_read_from_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("svg = yes\n")
        out = tmp_path / "run"
        code = main(["analytic-spectrum", "--config", str(cfg_file), "--N", "16",
                     "--gamma-prime", "4", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "spectrum.svg").exists()
        assert read_manifest(out)["config"]["svg"] is True

    def test_bad_svg_value_is_usage_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("svg = maybe\n")
        out = tmp_path / "x"
        code = main(["analytic-spectrum", "--config", str(cfg_file), "--N", "16",
                     "--gamma-prime", "4", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "not a boolean: 'maybe'" in capsys.readouterr().err
        assert not out.exists()

    def test_kind_read_from_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("kind = dgg\n")
        out = tmp_path / "run"
        code = main(["spectrum", "--config", str(cfg_file), "--d", "1",
                     "--N", "16", "--gamma-prime", "4", "--out", str(out)])
        assert code == EXIT_OK
        assert read_manifest(out)["config"]["kind"] == "dgg"
        assert (out / "comparison.csv").exists()

    def test_bad_kind_is_usage_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("kind = bogus\n")
        out = tmp_path / "x"
        code = main(["spectrum", "--config", str(cfg_file), "--d", "1",
                     "--N", "16", "--gamma-prime", "4", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "'bogus'" in capsys.readouterr().err
        assert not out.exists()


class TestThreadControl:
    def test_flag_pins_blas_env(self, tmp_path, monkeypatch):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        out = tmp_path / "run"
        code = main(["analytic-spectrum", "--d", "1", "--N", "8",
                     "--gamma-prime", "4", "--threads", "2", "--out", str(out)])
        assert code == EXIT_OK
        import os
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert read_manifest(out)["config"]["threads"] == 2

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "3")
        out = tmp_path / "run"
        code = main(["analytic-spectrum", "--d", "1", "--N", "8",
                     "--gamma-prime", "4", "--out", str(out)])
        assert code == EXIT_OK
        import os
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
        assert read_manifest(out)["config"]["threads"] == 3

    def test_import_loads_no_numeric_library(self):
        # --threads can pin BLAS only because importing the CLI leaves
        # numpy and scipy unloaded
        src = os.path.dirname(os.path.dirname(rgg_spectra.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        probe = ("import sys, rgg_spectra.cli; "
                 "print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"

    def test_walk_outputs_identical_across_thread_counts(self, tmp_path):
        # fresh processes, so each pin takes effect before numpy loads; the
        # 9 batches of walkers form three groups, enough for two threads
        src = os.path.dirname(os.path.dirname(rgg_spectra.__file__))
        returns = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            result = subprocess.run(
                [sys.executable, "-m", "rgg_spectra.cli", "diffusion", "--d",
                 "2", "--N", "16", "--gamma-prime", "8", "--walkers",
                 str(9 * MC_BATCH + 3), "--tmax", "40", "--threads",
                 str(threads), "--out", str(out)],
                env={**os.environ, "PYTHONPATH": src}, check=True,
                capture_output=True, text=True)
            walk_threads = min(read_manifest(out)["blas_threads"] or 1, 3)
            assert f"walk threads={walk_threads}" in result.stdout
            returns.append((out / "mc_returns.csv").read_bytes())
        assert returns[0] == returns[1]

    @pytest.mark.parametrize("d,gamma,n,seed", [
        pytest.param(1, 16, 1024, 0, id="1-16"),
        pytest.param(2, 12, 1024, 0, id="2-12"),
        # sizes whose full assembly gives other bytes at 1 and 2 threads
        pytest.param(1, 16, 777, 3, id="1-16-n777"),
        pytest.param(1, 16, 1000, 3, id="1-16-n1000"),
    ])
    def test_dense_eigenvalues_identical_across_thread_counts(self, tmp_path,
                                                              d, gamma, n,
                                                              seed):
        # the claim holds on the two-stage route only: the eigvalsh
        # fallback's eigenvalues differ across thread counts by rounding
        src = os.path.dirname(os.path.dirname(rgg_spectra.__file__))
        runs = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "rgg_spectra.cli", "spectrum", "--kind",
                 "rgg", "--d", str(d), "--n", str(n), "--gamma", str(gamma),
                 "--seed", str(seed), "--threads", str(threads), "--out",
                 str(out)],
                env={**os.environ, "PYTHONPATH": src}, check=True,
                capture_output=True, text=True)
            runs.append((read_manifest(out)["eigensolver"],
                         (out / "eigenvalues.csv").read_bytes()))
        if {route for route, _ in runs} != {"dsyevd_2stage"}:
            pytest.skip("the loaded BLAS exports no dsyevd_2stage")
        assert runs[0][1] == runs[1][1]

    def test_nonpositive_threads_rejected(self, tmp_path):
        code = main(["analytic-spectrum", "--d", "1", "--N", "8",
                     "--gamma-prime", "4", "--threads", "0",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE


class TestReproducibility:
    def rerun(self, tmp_path, argv):
        # identical invocation twice, including the output directory
        out = tmp_path / "run"
        argv = argv + ["--out", str(out)]
        assert main(argv) == EXIT_OK
        before = snapshot(out)
        assert main(argv) == EXIT_OK
        assert_same_run(before, snapshot(out))

    def test_spectrum_rgg(self, tmp_path):
        self.rerun(tmp_path, ["spectrum", "--kind", "rgg", "--d", "2",
                              "--n", "64", "--gamma", "6", "--seed", "3",
                              "--svg"])

    def test_analytic_spectrum(self, tmp_path):
        self.rerun(tmp_path, ["analytic-spectrum", "--d", "2", "--N", "6",
                              "--gamma-prime", "8", "--svg"])

    def test_levy(self, tmp_path):
        self.rerun(tmp_path, ["levy", "--d", "1", "--gamma", "4",
                              "--n-list", "64", "--seeds", "2", "--svg"])

    def test_specdim(self, tmp_path):
        self.rerun(tmp_path, ["specdim", "--d", "1", "--N", "512",
                              "--gamma-prime", "16", "--methods", "cdf,heat",
                              "--svg"])

    def test_diffusion(self, tmp_path):
        self.rerun(tmp_path, ["diffusion", "--d", "1", "--N", "64",
                              "--gamma-prime", "4", "--walkers", "5000",
                              "--tmax", "32", "--svg"])
