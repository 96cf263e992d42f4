"""End-to-end CLI tests driving carkov.cli.main in process."""

import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from carkov import assemble, model
from carkov.cli import main
from carkov.covariance import cov_to_config, moments, residue_expansion
from carkov.errors import StepTooSmall
from carkov.simulate import (
    SCAN_BLOCK,
    _chunk_blocks,
    exact_step_operator,
    sample_euler,
    sample_exact,
    sample_spectral,
    write_csv,
)
from conftest import make_random_spec

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
K0 = str(CONFIGS / "k0.json")
K1 = str(CONFIGS / "k1_repeated.json")
K2 = str(CONFIGS / "k2.json")


class TestAnalyze:
    def test_k0_goldens(self, tmp_path, capsys):
        rc = main(["analyze", "--model", K0, "--out", str(tmp_path)])
        assert rc == 0
        assert "k = 0" in capsys.readouterr().out
        data = json.loads((tmp_path / "analysis.json").read_text())
        assert data["k"] == 0
        np.testing.assert_allclose(data["ito"]["a"], [-1.0], rtol=1e-12)
        assert data["ito"]["b_squared"] == pytest.approx(2 * math.pi, rel=1e-12)
        assert data["eigen_check"]["max_abs_error"] < 1e-10
        assert data["drift_vs_char_poly"]["a_from_moments"] == pytest.approx(
            [-1.0], rel=1e-12)
        assert data["drift_vs_char_poly"]["max_abs_difference"] < 1e-10

    def test_k2_structure(self, tmp_path):
        rc = main(["analyze", "--model", K2, "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "analysis.json").read_text())
        assert data["k"] == 2
        sigma = np.array(data["ito"]["sigma"])
        assert sigma.shape == (3, 3)
        assert np.linalg.eigvalsh(sigma).min() > 0
        assert data["eigen_check"]["max_abs_error"] < 1e-8

    def test_covariance_config_round_trips(self, tmp_path):
        main(["analyze", "--model", K1, "--out", str(tmp_path)])
        data = json.loads((tmp_path / "analysis.json").read_text())
        cov = residue_expansion(model.load_model(K1))
        assert data["covariance"] == cov_to_config(cov)
        mom = moments(cov)
        np.testing.assert_allclose(
            mom.even_moments, data["moments"]["even"], atol=1e-12
        )
        assert mom.top_plus == pytest.approx(data["moments"]["top_plus"])

    def test_curve_starts_at_r0(self, tmp_path):
        main(["analyze", "--model", K0, "--out", str(tmp_path),
              "--tmax", "2", "--points", "11"])
        curve = np.loadtxt(tmp_path / "covariance_curve.csv",
                           delimiter=",", skiprows=1)
        assert curve.shape == (11, 2)
        assert curve[0, 0] == 0.0
        assert curve[0, 1] == pytest.approx(math.pi, rel=1e-12)
        assert curve[-1, 0] == pytest.approx(2.0)

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["analyze", "--model", K2, "--out", str(a)])
        main(["analyze", "--model", K2, "--out", str(b)])
        assert (a / "analysis.json").read_bytes() == (b / "analysis.json").read_bytes()
        assert (a / "covariance_curve.csv").read_bytes() == \
            (b / "covariance_curve.csv").read_bytes()

    def test_expands_residues_once(self, tmp_path, monkeypatch):
        # every carkov namespace that holds residue_expansion counts, so a
        # second expansion anywhere in a command is seen
        calls = []

        def counted(spec):
            calls.append(spec)
            return residue_expansion(spec)

        import carkov.validate  # noqa: F401  (verify imports it on first use)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "carkov" \
                    and hasattr(module, "residue_expansion"):
                monkeypatch.setattr(module, "residue_expansion", counted)
        commands = [["analyze"], ["verify", "--budget", "fast"]] + [
            ["simulate", "--method", method]
            for method in ("exact", "euler", "spectral")]
        for i, command in enumerate(commands):
            calls.clear()
            argv = command + ["--model", K2, "--out", str(tmp_path / str(i))]
            assert main(argv) == 0
            assert len(calls) == 1, command

    @pytest.mark.parametrize("option, value", [
        ("--tmax", "nan"), ("--tmax", "inf"), ("--tmax", "0"),
        ("--tmax", "-1"), ("--points", "0"),
    ])
    def test_bad_curve_exit_2(self, tmp_path, capsys, option, value):
        rc = main(["analyze", "--model", K2, "--out", str(tmp_path),
                   option, value])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CarkovError"
        assert option in err["message"]
        assert not list(tmp_path.iterdir())


class TestSimulate:
    def test_exact_output_shape(self, tmp_path):
        rc = main(["simulate", "--model", K2, "--method", "exact",
                   "--dt", "0.01", "--steps", "1000", "--seed", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "path.csv").read_text().splitlines()
        assert lines[0] == "t,y0,y1,y2"
        assert len(lines) == 1002
        meta = json.loads((tmp_path / "path_meta.json").read_text())
        assert meta["method"] == "exact"
        assert meta["seed"] == 1
        assert meta["dt"] == 0.01

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["simulate", "--model", K1, "--method", "exact",
                  "--dt", "0.05", "--steps", "200", "--seed", "9",
                  "--out", str(out)])
        assert (a / "path.csv").read_bytes() == (b / "path.csv").read_bytes()
        assert (a / "path_meta.json").read_bytes() == \
            (b / "path_meta.json").read_bytes()

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--model", K0, "--method", "exact",
              "--dt", "0.1", "--steps", "20", "--seed", "7",
              "--out", str(a)])
        monkeypatch.setenv("CARKOV_SEED", "7")
        main(["simulate", "--model", K0, "--method", "exact",
              "--dt", "0.1", "--steps", "20", "--out", str(b)])
        assert (a / "path.csv").read_bytes() == (b / "path.csv").read_bytes()

    def test_methods_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--model", K0, "--method", "exact", "--dt", "0.1",
              "--steps", "50", "--seed", "3", "--out", str(a)])
        main(["simulate", "--model", K0, "--method", "euler", "--dt", "0.1",
              "--steps", "50", "--seed", "3", "--out", str(b)])
        assert (a / "path.csv").read_bytes() != (b / "path.csv").read_bytes()

    @pytest.mark.parametrize("spec_name", ["spec_k2", "spec_k8"])
    @pytest.mark.parametrize("method", ["exact", "euler", "spectral"])
    def test_streamed_path_is_the_sampled_path(self, tmp_path, request,
                                                spec_name, method):
        # the command writes the exact and Euler paths a scan chunk at a
        # time: the bytes of write_csv of the sampler's whole path, over
        # two chunks of 32,768 steps (six of 10,912 for an exact d = 9
        # path) and a partial block of 7; the spectral path is one chunk
        spec = request.getfixturevalue(spec_name)
        config = tmp_path / "model.json"
        config.write_text(json.dumps(model.to_config(spec)))
        if method == "spectral":
            steps = 3007
        else:
            steps = 2 * SCAN_BLOCK * _chunk_blocks(1) + 7
        assert main(["simulate", "--model", str(config), "--method", method,
                     "--dt", "0.01", "--steps", str(steps), "--seed", "5",
                     "--out", str(tmp_path / "cli")]) == 0
        if method == "spectral":
            path = sample_spectral(spec, 0.01 * np.arange(steps + 1), seed=5)
        else:
            sampler = sample_exact if method == "exact" else sample_euler
            path = sampler(*assemble(spec), 0.01, steps, seed=5)
        write_csv([path.values.T], tmp_path / "path.csv", 0.01)
        assert (tmp_path / "cli" / "path.csv").read_bytes() == \
            (tmp_path / "path.csv").read_bytes()
        meta = {"dt": 0.01, "method": method, "model": model.to_config(spec),
                "seed": 5}
        assert (tmp_path / "cli" / "path_meta.json").read_text() == \
            json.dumps(meta, indent=2, sort_keys=True) + "\n"

    def test_memory_does_not_grow_with_the_steps(self, tmp_path):
        # the exact path goes to path.csv one scan chunk at a time: the
        # peak at 2e5 steps is within one chunk's bytes of that at 2e4
        # steps, where the whole path is 4.8 MB against 0.48 MB
        def peak(steps):
            argv = ["simulate", "--model", K2, "--method", "exact",
                    "--steps", str(steps), "--out", str(tmp_path / str(steps))]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        main(["simulate", "--model", K2, "--method", "exact", "--steps", "10",
              "--out", str(tmp_path / "warm")])  # operands built untraced
        chunk = 8 * 3 * SCAN_BLOCK * _chunk_blocks(3)
        small, large = peak(20_000), peak(200_000)
        assert large - small <= chunk, (
            f"{(large - small) / chunk:.2f} chunks above the 2e4-step peak")

    def test_spectral_writes_all_rows(self, tmp_path):
        rc = main(["simulate", "--model", K1, "--method", "spectral",
                   "--dt", "0.5", "--steps", "4", "--seed", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "path.csv").read_text().splitlines()
        assert lines[0] == "t,y0,y1"
        assert len(lines) == 6

    def test_euler_unstable_exit_2(self, tmp_path, capsys):
        rc = main(["simulate", "--model", K0, "--method", "euler",
                   "--dt", "2.1", "--steps", "10", "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UnstableStep"
        # far below the stability bound of 1, I + A dt rounds to radius 1:
        # too small a step, not an unstable one
        rc = main(["simulate", "--model", K2, "--method", "euler",
                   "--dt", "1e-17", "--steps", "10", "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "StepTooSmall"

    def test_spectral_k0_exit_0(self, tmp_path):
        rc = main(["simulate", "--model", K0, "--method", "spectral",
                   "--dt", "0.5", "--steps", "4", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "path.csv").read_text().splitlines()
        assert lines[0] == "t,y0"
        assert len(lines) == 6

    def test_bad_dt_exit_2(self, tmp_path, capsys):
        rc = main(["simulate", "--model", K0, "--method", "exact",
                   "--dt", "-1", "--steps", "10", "--out", str(tmp_path)])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("method", ["exact", "euler", "spectral"])
    @pytest.mark.parametrize("dt", ["nan", "inf"])
    def test_non_finite_dt_exit_2(self, tmp_path, capsys, method, dt):
        rc = main(["simulate", "--model", K2, "--method", method,
                   "--dt", dt, "--steps", "10", "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CarkovError"
        assert "--dt" in err["message"]

    def test_exact_step_too_small_exit_2(self, tmp_path, capsys):
        # the first random k = 8 / k = 10 model whose e^{A dt} double
        # precision does not resolve at dt = 1e-16 tau
        rng = np.random.default_rng(5)
        for i in range(20):
            spec = make_random_spec(rng, 8 if i % 2 == 0 else 10)
            dt = 1e-16 / min(z.imag for z in spec.roots)
            try:
                exact_step_operator(*assemble(spec), dt)
            except StepTooSmall:
                break
        else:
            pytest.fail("no model reached the rounding limit")
        (tmp_path / "model.json").write_text(json.dumps(model.to_config(spec)))
        rc = main(["simulate", "--model", str(tmp_path / "model.json"),
                   "--method", "exact", "--dt", repr(dt), "--steps", "10",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "StepTooSmall"
        assert "spectral radius" in err["message"]
        # e^{A dt} at dt = 1e-300 has computed radius 1 - 1.1e-16 < 1, but
        # contracts far faster than e^{-alpha dt}
        rc = main(["simulate", "--model", K2, "--method", "exact",
                   "--dt", "1e-300", "--steps", "10", "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "StepTooSmall"

    def test_simulate_does_not_load_scipy(self, tmp_path):
        # a fresh interpreter runs the spectral and exact samplers (the
        # latter also on k1_repeated, whose drift has a repeated
        # eigenvalue), analyze, the fast verification suite and the
        # quadrature oracle with numpy alone
        code = textwrap.dedent(f"""
            import sys
            import carkov, carkov.cli
            runs = [({K2!r}, "spectral"), ({K2!r}, "exact"), ({K1!r}, "exact")]
            for i, (config, method) in enumerate(runs):
                rc = carkov.cli.main([
                    "simulate", "--model", config, "--method", method,
                    "--dt", "0.01", "--steps", "50", "--seed", "1",
                    "--out", {str(tmp_path)!r} + "/path" + str(i)])
                assert rc == 0, (config, method)
            rc = carkov.cli.main([
                "analyze", "--model", {K2!r},
                "--out", {str(tmp_path)!r} + "/analyze"])
            assert rc == 0, "analyze"
            rc = carkov.cli.main([
                "verify", "--model", {K2!r}, "--budget", "fast",
                "--seed", "1", "--out", {str(tmp_path)!r} + "/verify"])
            assert rc == 0, "verify"
            from carkov import model, quadrature_r
            spec = model.load_model({K0!r})
            assert abs(quadrature_r(spec, 0, 0.5) - {math.pi!r} * {math.exp(-0.5)!r}) < 1e-6
            assert abs(quadrature_r(spec, 0, 0.0) - {math.pi!r}) < 1e-6
            loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
            assert not loaded, loaded
            """)
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr

    def test_simulate_does_not_load_the_verifier(self, tmp_path):
        # carkov simulate imports carkov.validate for none of its methods
        code = textwrap.dedent(f"""
            import sys
            import carkov.cli
            for method in ("exact", "euler", "spectral"):
                rc = carkov.cli.main([
                    "simulate", "--model", {K2!r}, "--method", method,
                    "--steps", "50", "--out", {str(tmp_path)!r} + "/" + method])
                assert rc == 0, method
            assert "carkov.validate" not in sys.modules
            """)
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # the spectral rows and the exact standard error of the
        # empirical covariance check, in fresh interpreters with one and
        # two BLAS threads: a BLAS gemv or dot product may split its sums
        # between threads and change the last bits
        code = textwrap.dedent(f"""
            import contextlib, io, sys
            from carkov import model, residue_expansion
            from carkov.cli import main
            from carkov.validate import product_mean_laws
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(["simulate", "--model", {K2!r}, "--method",
                           "spectral", "--dt", "0.01", "--steps", "250",
                           "--seed", "3", "--out", sys.argv[1]])
            assert rc == 0
            cov = residue_expansion(model.load_model({K2!r}))
            for idx in (0, 499, 1996):
                print(repr(product_mean_laws(cov, 1.0 / 998, [idx],
                                             [1_000_001 - idx])[0]))
            """)
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "MKL_NUM_THREADS": threads}
            out = tmp_path / threads
            run = subprocess.run([sys.executable, "-c", code, str(out)],
                                 env=env, capture_output=True, text=True,
                                 timeout=120)
            assert run.returncode == 0, run.stderr
            runs.append((run.stdout, (out / "path.csv").read_bytes()))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_python_m_carkov(self, tmp_path):
        # the package runs as a module, with the command line's outputs
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        run = subprocess.run(
            [sys.executable, "-m", "carkov", "analyze", "--model", K2,
             "--out", str(tmp_path / "module")],
            env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert main(["analyze", "--model", K2,
                     "--out", str(tmp_path / "main")]) == 0
        for name in ("analysis.json", "covariance_curve.csv"):
            assert (tmp_path / "module" / name).read_bytes() == \
                (tmp_path / "main" / name).read_bytes()


class TestVerify:
    def test_pass_exit_0(self, tmp_path, capsys):
        rc = main(["verify", "--model", K0, "--budget", "fast",
                   "--seed", "0", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "7/7 checks passed" in out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert len(report) == 7
        assert all(entry["passed"] for entry in report)
        assert {"name", "passed", "statistic", "threshold", "detail"} <= \
            set(report[0])

    def test_perturbed_exit_1(self, capsys):
        rc = main(["verify", "--model", K1, "--budget", "fast",
                   "--seed", "0", "--perturb", "1e-3"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_perturbation_exit_2(self, capsys, eps):
        rc = main(["verify", "--model", K2, "--perturb", eps])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "perturb_coef" in err["message"]


class TestErrorHandling:
    def test_missing_model_exit_2(self, tmp_path, capsys):
        rc = main(["analyze", "--model", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "message" in err

    def test_unpaired_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"roots": [[1.0, 1.0]], "scale": 1.0}))
        rc = main(["analyze", "--model", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UnpairedRoot"

    def test_non_finite_root_exit_2(self, tmp_path, capsys):
        # json reads 1e400 as inf
        bad = tmp_path / "bad.json"
        bad.write_text('{"roots": [[0, 1e400]], "scale": 1}')
        rc = main(["analyze", "--model", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CarkovError"
        assert err["message"] == "roots [infj] and scale 1.0 must be finite"

    @pytest.mark.parametrize("command", [
        ["analyze"], ["simulate", "--method", "exact"], ["verify"]])
    @pytest.mark.parametrize("roots, scale, named", [
        ([[0, 1e200], [0, 2e200]], 1.0, "modulus 1e+200 to 2e+200 at scale 1"),
        ([[0, 1e-300], [0, 2e-300]], 1e300,
         "modulus 1e-300 to 2e-300 at scale 1e+300")])
    def test_overflowing_residue_terms_exit_2(self, tmp_path, capsys, command,
                                              roots, scale, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"roots": roots, "scale": scale}))
        argv = command + ["--model", str(bad), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CarkovError"
        assert named in err["message"]

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("seed, env, named", [
        ("-1", "", "--seed"), (None, "abc", "$CARKOV_SEED")])
    def test_bad_seed_exit_2(self, tmp_path, capsys, monkeypatch, command,
                             seed, env, named):
        monkeypatch.setenv("CARKOV_SEED", env)
        argv = [command, "--model", K0, "--out", str(tmp_path)]
        argv += ["--method", "exact"] if command == "simulate" else []
        argv += ["--seed", seed] if seed is not None else []
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CarkovError"
        assert named in err["message"] and (seed or env) in err["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("config, field", [
        ('{"roots": [[0, 1]], "scale": "2"}', "scale"),
        ('{"roots": [[0, 1]], "scale": true}', "scale"),
        ('{"roots": [[false, true]], "scale": 1}', "roots[0][0]"),
        ('{"roots": [[0, 1]], "scale": 1' + "0" * 400 + "}", "too large"),
    ], ids=["string-scale", "bool-scale", "bool-root", "huge-int-scale"])
    def test_non_number_config_exit_2(self, tmp_path, capsys, config, field):
        bad = tmp_path / "bad.json"
        bad.write_text(config)
        rc = main(["analyze", "--model", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CarkovError"
        assert err["message"].startswith("malformed model config")
        assert field in err["message"]

    @pytest.mark.parametrize("dt, steps", [
        ("1e306", "1000"), ("1", "1" + "0" * 400),
    ], ids=["huge-dt", "steps-past-float"])
    @pytest.mark.parametrize("method", ["exact", "euler", "spectral"])
    def test_overflowing_grid_exit_2(self, tmp_path, capsys, method, dt, steps):
        rc = main(["simulate", "--model", K2, "--method", method,
                   "--dt", dt, "--steps", steps, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CarkovError"
        assert "--dt" in err["message"] and "--steps" in err["message"]
        assert not list(tmp_path.iterdir())

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["analyze", "--model", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        capsys.readouterr()
